(* Order statistics over timing samples.  Quartiles use the same
   "exclusive" interpolation as Python's [statistics.quantiles], so the
   spreads printed here read the same as the ones computed over a set
   of runs. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* [quantile a p] over a sorted, non-empty array: linear interpolation
   at position [p * (n + 1)], exactly as Python's exclusive method
   (which extrapolates past the ends for very small samples). *)
let quantile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  if n = 1 then a.(0)
  else
    let pos = p *. float_of_int (n + 1) in
    let j = max 1 (min (n - 1) (truncate pos)) in
    a.(j - 1) +. ((a.(j) -. a.(j - 1)) *. (pos -. float_of_int j))

let median xs = quantile (sorted xs) 0.5

type summary = { n : int; q1 : float; med : float; q3 : float }

let summarize xs =
  let a = sorted xs in
  { n = Array.length a; q1 = quantile a 0.25; med = quantile a 0.5; q3 = quantile a 0.75 }
