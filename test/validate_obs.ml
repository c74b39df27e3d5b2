(* Validate exported JSON artifacts (see test/OBS_SCHEMA.md).

   usage: validate_obs.exe (trace|metrics|timings) FILE

   Prints a one-line deterministic summary on success; prints the
   violation and exits 1 on failure.  CI runs this over the smoke-run
   artifacts; the cram suite runs it over files produced by `mtj trace`. *)

let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let () =
  let kind, file =
    match Sys.argv with
    | [| _; kind; file |] -> (kind, file)
    | _ -> die "usage: validate_obs.exe (trace|metrics|timings) FILE"
  in
  let contents =
    try In_channel.with_open_bin file In_channel.input_all
    with Sys_error e -> die "cannot read %s: %s" file e
  in
  let doc =
    match Mtj_obs.Json.parse contents with
    | Ok d -> d
    | Error e -> die "%s: %s" file e
  in
  match kind with
  | "trace" -> (
      match Mtj_obs.Validate.trace doc with
      | Error e -> die "%s: invalid trace: %s" file e
      | Ok s ->
          (* a run that never traced or never collected leaves a track
             without spans, but the exporter declares all three *)
          List.iter
            (fun track ->
              if not (List.mem track s.Mtj_obs.Validate.track_names) then
                die "%s: no %s track declared (want phases, jit-traces, gc)"
                  file track)
            [ "phases"; "jit-traces"; "gc" ];
          if s.Mtj_obs.Validate.counter_tracks < 2 then
            die "%s: only %d counter tracks" file
              s.Mtj_obs.Validate.counter_tracks;
          Printf.printf "trace OK: balanced spans on %d tracks, %d counter tracks\n"
            s.Mtj_obs.Validate.duration_tracks
            s.Mtj_obs.Validate.counter_tracks)
  | "metrics" -> (
      match Mtj_obs.Validate.metrics doc with
      | Error e -> die "%s: invalid metrics: %s" file e
      | Ok n -> Printf.printf "metrics OK: %d run record%s\n" n
                  (if n = 1 then "" else "s"))
  | "timings" -> (
      match Mtj_obs.Validate.timings doc with
      | Error e -> die "%s: invalid timings: %s" file e
      | Ok n -> Printf.printf "timings OK: %d run row%s\n" n
                  (if n = 1 then "" else "s"))
  | k -> die "unknown artifact kind %S" k
