(* In-memory spans for the traced run.  A span is recorded from the
   benchmark's own code around one call into a layer; spans from
   worker domains (the engine's and the fleet's make_sim) go through
   the same mutex.  Nothing is written until [write] at the end. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 for a root span *)
  start : float;
  stop : float;
  minor_words : float;  (** allocated in the recording domain *)
  major_collections : int;
}

let now () = Unix.gettimeofday ()

let lock = Mutex.create ()

let recorded = ref []

let next_id = Atomic.make 1

let fresh_id () = Atomic.fetch_and_add next_id 1

(* [record ~parent name f] runs [f id] inside a span named [name],
   where [id] is the new span's id for use as a child's parent. *)
let record ?(parent = 0) name f =
  let id = fresh_id () in
  let g0 = Gc.quick_stat () in
  let start = now () in
  let result = f id in
  let stop = now () in
  let g1 = Gc.quick_stat () in
  let s =
    {
      id;
      name;
      parent;
      start;
      stop;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    }
  in
  Mutex.protect lock (fun () -> recorded := s :: !recorded);
  (result, s)

let duration s = s.stop -. s.start

let all () = Mutex.protect lock (fun () -> List.rev !recorded)

(* A span's self time: its duration minus the part of its interval
   that its children cover.  Children of one parent may overlap (they
   run on several domains), so the covered part is the length of the
   union of their intervals, clipped to the parent. *)
let self_time s ~children =
  let intervals =
    List.filter_map
      (fun c ->
        let a = Float.max c.start s.start and b = Float.min c.stop s.stop in
        if b > a then Some (a, b) else None)
      children
    |> List.sort compare
  in
  let covered, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) when a <= cb -> (acc, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (acc +. (cb -. ca), Some (a, b)))
      (0., None) intervals
  in
  let covered =
    match last with Some (a, b) -> covered +. (b -. a) | None -> covered
  in
  duration s -. covered

(* One JSON object per line; [self_s] is {!self_time} over the span's
   direct children. *)
let write path spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"name\": %S, \"parent\": %d, \"start_s\": %.6f, \
             \"end_s\": %.6f, \"self_s\": %.6f, \"minor_words\": %.0f, \
             \"major_collections\": %d}\n"
            s.id s.name s.parent (s.start -. t0) (s.stop -. t0)
            (self_time s ~children:(Hashtbl.find_all children s.id))
            s.minor_words s.major_collections)
        spans)
