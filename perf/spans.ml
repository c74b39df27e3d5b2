(* Host-time spans recorded around calls into each layer, kept in memory
   and written at exit as Chrome trace-event JSON (open in Perfetto).
   A span carries its name, start, end, parent span, the run or request
   it belongs to, the worker domain it ran on and the minor-heap words
   allocated inside it ([Gc.minor_words] is domain-local, so the count
   is exact at any job count). *)

module J = Mtj_obs.Json

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root *)
  key : int;  (* run or request id *)
  domain : int;
  start : float;
  stop : float;
  words : float;
}

type t = { lock : Mutex.t; mutable next : int; mutable spans : span list }

let create () = { lock = Mutex.create (); next = 0; spans = [] }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* [span t ~key name f] runs [f id] inside a span; [id] is the parent to
   give the spans [f] opens *)
let span t ?(parent = -1) ~key name f =
  let id =
    locked t (fun () ->
        let id = t.next in
        t.next <- id + 1;
        id)
  in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let finish () =
    let stop = Unix.gettimeofday () in
    let words = Gc.minor_words () -. w0 in
    let s =
      { id; name; parent; key; domain = (Domain.self () :> int); start = t0;
        stop; words }
    in
    locked t (fun () -> t.spans <- s :: t.spans)
  in
  Fun.protect ~finally:finish (fun () -> f id)

let all t = locked t (fun () -> List.rev t.spans)
let dur s = s.stop -. s.start
let named t name = List.filter (fun s -> s.name = name) (all t)

(* duration minus the part of it that the span's children cover *)
let self_times t =
  let spans = all t in
  let kids = Hashtbl.create 64 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add kids s.parent s) spans;
  List.map
    (fun s ->
      let ivs =
        List.sort compare
          (List.map
             (fun c -> (Float.max c.start s.start, Float.min c.stop s.stop))
             (Hashtbl.find_all kids s.id))
      in
      let covered, _ =
        List.fold_left
          (fun (acc, hi) (a, b) ->
            let a = Float.max a hi in
            if b > a then (acc +. (b -. a), b) else (acc, hi))
          (0.0, neg_infinity) ivs
      in
      (s, dur s -. covered))
    spans

(* per span name: (count, total duration, total self time) *)
let by_name t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let n, d, st =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name (n + 1, d +. dur s, st +. self))
    (self_times t);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let chrome_json ~label t =
  let spans = self_times t in
  let origin =
    List.fold_left (fun m (s, _) -> Float.min m s.start) infinity spans
  in
  let us x = J.Float (x *. 1e6) in
  J.Obj
    [
      ("displayTimeUnit", J.Str "ms");
      ("otherData", J.Obj [ ("workload", J.Str label) ]);
      ( "traceEvents",
        J.Arr
          (List.map
             (fun (s, self) ->
               J.Obj
                 [
                   ("name", J.Str s.name);
                   ("cat", J.Str label);
                   ("ph", J.Str "X");
                   ("ts", us (s.start -. origin));
                   ("dur", us (dur s));
                   ("pid", J.Int 1);
                   ("tid", J.Int s.domain);
                   ( "args",
                     J.Obj
                       [
                         ("id", J.Int s.id);
                         ("parent", J.Int s.parent);
                         ("key", J.Int s.key);
                         ("self_us", us self);
                         ("minor_words", J.Float s.words);
                       ] );
                 ])
             spans) );
    ]
