(* Order statistics for benchmark samples.  [quartiles] follows Python's
   [statistics.quantiles(xs, n=4)] (the default "exclusive" method), so
   the spreads this tool prints are the ones a Python reader of the
   result files computes. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* (q1, q2, q3) *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

(* interquartile distance as a share of the median *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  let m = median xs in
  if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m

(* exact nearest-rank percentile, as the serving harness reports it *)
let percentile xs p =
  if xs = [||] then 0.0 else Mtj_harness.Report.percentile xs p

let sum = List.fold_left ( +. ) 0.0
let mean xs = match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)
let ratio a b = if b = 0.0 then 0.0 else a /. b
