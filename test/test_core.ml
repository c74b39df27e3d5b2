(** Unit tests for mtj_core: phases, costs, profiles, config. *)

open Mtj_core

let test_phase_index_roundtrip () =
  List.iter
    (fun p -> Alcotest.(check bool) "roundtrip" true (Phase.of_index (Phase.index p) = p))
    Phase.all

let test_phase_count () =
  Alcotest.(check int) "count" (List.length Phase.all) Phase.count

let test_phase_names_unique () =
  let names = List.map Phase.name Phase.all in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq String.compare names))

let test_phase_is_gc () =
  Alcotest.(check bool) "minor" true (Phase.is_gc Phase.Gc_minor);
  Alcotest.(check bool) "major" true (Phase.is_gc Phase.Gc_major);
  Alcotest.(check bool) "jit" false (Phase.is_gc Phase.Jit)

let test_cost_total () =
  let c = Cost.make ~alu:3 ~fpu:2 ~load:4 ~store:1 ~other:5 () in
  Alcotest.(check int) "total" 15 (Cost.total c)

let test_cost_add () =
  let a = Cost.make ~alu:1 ~load:2 () in
  let b = Cost.make ~alu:3 ~store:4 () in
  Alcotest.(check int) "sum total" 10 (Cost.total Cost.(a + b))

let test_cost_zero () =
  Alcotest.(check int) "zero" 0 (Cost.total Cost.zero)

let test_cost_scale_keeps_nonzero () =
  let c = Cost.make ~alu:1 ~load:1 () in
  let scaled = Cost.scale 0.1 c in
  Alcotest.(check bool) "alu stays >= 1" true (Cost.total scaled >= 2)

let test_cost_scale_doubles () =
  let c = Cost.make ~alu:10 ~load:6 ~store:4 () in
  Alcotest.(check int) "x2" 40 (Cost.total (Cost.scale 2.0 c))

let test_profiles_ordering () =
  (* CPython interprets cheaper than the RPython-translated interpreter *)
  let dispatch p = Cost.total p.Profile.dispatch in
  Alcotest.(check bool) "dispatch" true
    (dispatch Profile.cpython < dispatch Profile.rpython_interp);
  Alcotest.(check bool) "op_scale" true
    (Profile.cpython.Profile.op_scale < Profile.rpython_interp.Profile.op_scale);
  Alcotest.(check bool) "native cheapest" true
    (Profile.native.Profile.op_scale < Profile.racket_custom.Profile.op_scale)

let test_config_no_jit () =
  Alcotest.(check bool) "jit off" false Config.no_jit.Config.jit_enabled;
  Alcotest.(check bool) "jit on" true Config.default.Config.jit_enabled

let test_config_budget () =
  let c = Config.with_budget 123 Config.default in
  Alcotest.(check int) "budget" 123 c.Config.insn_budget

let test_config_two_tier () =
  Alcotest.(check bool) "default is single-tier optimizing" true
    (Config.default.Config.tier_policy = Config.Optimizing);
  Alcotest.(check bool) "two_tier is adaptive" true
    (Config.two_tier.Config.tier_policy = Config.Adaptive);
  Alcotest.(check bool) "baseline_tier is baseline" true
    (Config.baseline_tier.Config.tier_policy = Config.Baseline);
  Alcotest.(check bool) "jit stays enabled" true
    Config.two_tier.Config.jit_enabled;
  Alcotest.(check bool) "tier-2 comes after bridges can form" true
    (Config.two_tier.Config.tier2_threshold
    > Config.two_tier.Config.bridge_threshold);
  (* name <-> policy round-trip *)
  List.iter
    (fun p ->
      Alcotest.(check bool) "policy name round-trips" true
        (Config.tier_policy_of_string (Config.tier_policy_name p) = Some p))
    Config.all_tier_policies;
  (* only the three canonical names parse: no aliases *)
  List.iter
    (fun name ->
      Alcotest.(check bool) ("policy name rejected: " ^ name) true
        (Config.tier_policy_of_string name = None))
    [ "warp-speed"; "opt"; "1tier-opt"; "base"; "1tier-base"; "2tier";
      "multi" ]

let test_annot_to_string () =
  Alcotest.(check string) "tick" "dispatch_tick"
    (Annot.to_string Annot.Dispatch_tick);
  Alcotest.(check string) "push" "phase_push:jit"
    (Annot.to_string (Annot.Phase_push Phase.Jit))

let suite =
  [
    Alcotest.test_case "phase index roundtrip" `Quick test_phase_index_roundtrip;
    Alcotest.test_case "phase count" `Quick test_phase_count;
    Alcotest.test_case "phase names unique" `Quick test_phase_names_unique;
    Alcotest.test_case "phase is_gc" `Quick test_phase_is_gc;
    Alcotest.test_case "cost total" `Quick test_cost_total;
    Alcotest.test_case "cost add" `Quick test_cost_add;
    Alcotest.test_case "cost zero" `Quick test_cost_zero;
    Alcotest.test_case "cost scale keeps nonzero" `Quick test_cost_scale_keeps_nonzero;
    Alcotest.test_case "cost scale doubles" `Quick test_cost_scale_doubles;
    Alcotest.test_case "profile ordering" `Quick test_profiles_ordering;
    Alcotest.test_case "config no_jit" `Quick test_config_no_jit;
    Alcotest.test_case "config budget" `Quick test_config_budget;
    Alcotest.test_case "config two-tier" `Quick test_config_two_tier;
    Alcotest.test_case "annot to_string" `Quick test_annot_to_string;
  ]
