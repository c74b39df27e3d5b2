(* [perf.exe compare BASE CHANGE]: one row per workload and end-to-end
   metric, with each side's median and quartiles, the share of pairs
   (rep i of BASE against rep i of CHANGE) the change wins, and a
   verdict under the bounds fixed in BENCHMARK.json:

   - improved: the change wins at least nine tenths of the pairs (ties
     count for neither side) and the medians differ, in the better
     direction, by more than BASE's interquartile distance;
   - worse: the change's median is worse than BASE's by more than the
     bound (for [failed_frac], by anything at all);
   - unresolved: BASE's own spread is wider than the bound, unless every
     run of the change reads better than every run of BASE;
   - unchanged: otherwise. *)

module J = Mtj_obs.Json

let load file =
  match J.parse (Oracle.read_file file) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" file e)

let field path j =
  List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) path

(* name -> (bound, higher_is_better) from BENCHMARK.json's end_to_end *)
let bounds file =
  match field [ "end_to_end" ] (load file) with
  | Some (J.Arr ms) ->
      List.filter_map
        (fun m ->
          match
            ( Option.bind (J.member "name" m) J.get_str,
              Option.bind (J.member "bound" m) J.get_num,
              Option.bind (J.member "better" m) J.get_str )
          with
          | Some n, Some b, Some better -> Some (n, (b, better = "higher"))
          | _ -> None)
        ms
  | _ -> failwith (file ^ ": no end_to_end list")

let samples doc workload metric =
  match field [ "workloads"; workload; "metrics"; metric; "samples" ] doc with
  | Some (J.Arr vs) -> List.filter_map J.get_num vs
  | _ -> []

let verdict ~bound ~higher base change =
  let better a b = if higher then a > b else a < b in
  let bm = Stats.median base and cm = Stats.median change in
  let q1, _, q3 = Stats.quartiles base in
  let n = min (List.length base) (List.length change) in
  let first l = List.filteri (fun i _ -> i < n) l in
  let pairs = List.combine (first base) (first change) in
  let wins = List.length (List.filter (fun (b, c) -> better c b) pairs) in
  let share = Stats.ratio (float_of_int wins) (float_of_int (List.length pairs)) in
  let worse_by = Stats.ratio (if higher then bm -. cm else cm -. bm) (Float.abs bm) in
  let all_better =
    List.for_all (fun c -> List.for_all (fun b -> better c b) base) change
  in
  let v =
    if share >= 0.9 && better cm bm && Float.abs (cm -. bm) > q3 -. q1 then "improved"
    else if (bm = 0.0 && cm > 0.0 && not higher) || worse_by > bound then "worse"
    else if Stats.spread base > bound && not all_better then "unresolved"
    else "unchanged"
  in
  (v, share)

let run ~bounds_file base_file change_file =
  let bounds = ("failed_frac", (0.0, false)) :: bounds bounds_file in
  let base = load base_file and change = load change_file in
  let workloads =
    match field [ "workloads" ] base with
    | Some (J.Obj ws) -> List.map fst ws
    | _ -> []
  in
  Printf.printf "%-13s %-16s %32s %32s %8s %5s  %s\n" "workload" "metric"
    "base median [q1, q3]" "change median [q1, q3]" "delta" "wins" "verdict";
  let tally = Hashtbl.create 4 in
  List.iter
    (fun w ->
      List.iter
        (fun (m, (bound, higher)) ->
          match (samples base w m, samples change w m) with
          | [], _ | _, [] -> ()
          | b, c ->
              let v, share = verdict ~bound ~higher b c in
              Hashtbl.replace tally v (1 + Option.value ~default:0 (Hashtbl.find_opt tally v));
              let q1b, mb, q3b = Stats.quartiles b and q1c, mc, q3c = Stats.quartiles c in
              let side m q1 q3 = Printf.sprintf "%.4g [%.4g, %.4g]" m q1 q3 in
              Printf.printf "%-13s %-16s %32s %32s %7.1f%% %4.0f%%  %s\n" w m
                (side mb q1b q3b) (side mc q1c q3c)
                (100.0 *. Stats.ratio (mc -. mb) (Float.abs mb))
                (100.0 *. share) v)
        bounds)
    workloads;
  Printf.printf "verdicts:%s\n"
    (String.concat ""
       (List.map
          (fun v ->
            Printf.sprintf " %s %d" v (Option.value ~default:0 (Hashtbl.find_opt tally v)))
          [ "improved"; "unchanged"; "worse"; "unresolved" ]));
  Option.value ~default:0 (Hashtbl.find_opt tally "worse")
