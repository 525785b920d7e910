let recommended_domains () = max 1 (Domain.recommended_domain_count ())

let check_domains ?(fn = "Parallel.map") = function
  | Some d when d < 1 -> invalid_arg (fn ^ ": need at least one domain")
  | Some d -> Some d
  | None -> None

(* Work-stealing skeleton shared by [map_array] and [map_results]:
   [n] items, one atomic next-index counter, [workers] domains (the
   caller's domain included) each running [body] until either the
   items run out or [stop] flips.  [body i] must not raise. *)
let drive ~n ~workers ~stop body =
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n && not (stop ()) then begin
        body i;
        loop ()
      end
    in
    loop ()
  in
  let spawned = Array.init (workers - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join spawned

let worker_count ~domains n =
  let wanted =
    match check_domains domains with
    | Some d -> d
    | None -> recommended_domains ()
  in
  min wanted n

let map_array ?domains f input =
  let n = Array.length input in
  if n = 0 then begin
    ignore (check_domains domains);
    [||]
  end
  else begin
    let workers = worker_count ~domains n in
    if workers = 1 then Array.map f input
    else begin
      let results = Array.make n None in
      let failure = Atomic.make None in
      drive ~n ~workers
        ~stop:(fun () -> Option.is_some (Atomic.get failure))
        (fun i ->
          match f input.(i) with
          | result -> results.(i) <- Some result
          | exception e ->
            (* Capture the backtrace in the failing domain, at the
               catch site: re-raising in the joining domain would
               otherwise report the join point, not the task. *)
            let bt = Printexc.get_raw_backtrace () in
            (* Keep the first failure; losing later ones is fine. *)
            ignore (Atomic.compare_and_set failure None (Some (e, bt))));
      (match Atomic.get failure with
       | Some (e, bt) -> Printexc.raise_with_backtrace e bt
       | None -> ());
      Array.map
        (function
          | Some r -> r
          | None -> assert false)
        results
    end
  end

let map ?domains f xs =
  Array.to_list (map_array ?domains f (Array.of_list xs))

let map_results_array ?domains f input =
  let n = Array.length input in
  if n = 0 then begin
    ignore (check_domains domains);
    [||]
  end
  else begin
    let run i =
      match f input.(i) with
      | result -> Ok result
      | exception e -> Error (e, Printexc.get_raw_backtrace ())
    in
    let workers = worker_count ~domains n in
    if workers = 1 then Array.init n run
    else begin
      let results = Array.make n None in
      drive ~n ~workers
        ~stop:(fun () -> false)
        (fun i -> results.(i) <- Some (run i));
      Array.map
        (function
          | Some r -> r
          | None -> assert false)
        results
    end
  end

let map_results ?domains f xs =
  Array.to_list (map_results_array ?domains f (Array.of_list xs))

(* The one-domain pipeline: the caller alternates the two stages on a
   single block. *)
let pipeline_sequential ~make ~produce ~consume =
  let b = make () in
  let rec loop () =
    let more = produce b in
    consume b;
    if more then loop ()
  in
  loop ()

(* The two-domain pipeline.  Block k lives in buffer [k land 1].  Stage
   1 may fill block k once block k - 2 has been consumed; stage 2 may
   read block k once it has been produced.  The counters change only
   under [lock], and every change (a failure included) is broadcast on
   [changed], so a waiting stage always wakes to re-check. *)
let pipeline_two ~make ~produce ~consume =
  let blocks = [| make (); make () |] in
  let lock = Mutex.create () and changed = Condition.create () in
  let produced = Atomic.make 0 and consumed = Atomic.make 0 in
  let ended = Atomic.make false and failure = Atomic.make None in
  let signal update =
    Mutex.lock lock;
    update ();
    Condition.broadcast changed;
    Mutex.unlock lock
  in
  let fail e bt =
    signal (fun () ->
        (* Keep the first failure: it is the one the caller re-raises. *)
        if Option.is_none (Atomic.get failure) then
          Atomic.set failure (Some (e, bt)))
  in
  (* Block until [ready ()] or a failure; [true] when it is safe to go
     on, [false] when the other stage has failed. *)
  let await ready =
    Mutex.lock lock;
    while (not (ready ())) && Option.is_none (Atomic.get failure) do
      Condition.wait changed lock
    done;
    let ok = Option.is_none (Atomic.get failure) in
    Mutex.unlock lock;
    ok
  in
  let stage1 () =
    let rec loop k =
      if await (fun () -> k - Atomic.get consumed < 2) then
        match produce blocks.(k land 1) with
        | more ->
          signal (fun () ->
              Atomic.set produced (k + 1);
              if not more then Atomic.set ended true);
          if more then loop (k + 1)
        | exception e -> fail e (Printexc.get_raw_backtrace ())
    in
    loop 0
  in
  let stage2 () =
    let rec loop k =
      if
        await (fun () -> Atomic.get produced > k || Atomic.get ended)
        && Atomic.get produced > k
      then
        match consume blocks.(k land 1) with
        | () ->
          signal (fun () -> Atomic.set consumed (k + 1));
          loop (k + 1)
        | exception e -> fail e (Printexc.get_raw_backtrace ())
    in
    loop 0
  in
  let producer = Domain.spawn stage1 in
  stage2 ();
  Domain.join producer;
  match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let pipeline ?domains ~make ~produce ~consume () =
  let wanted =
    match check_domains ~fn:"Parallel.pipeline" domains with
    | Some d -> d
    | None -> recommended_domains ()
  in
  if wanted >= 2 then pipeline_two ~make ~produce ~consume
  else pipeline_sequential ~make ~produce ~consume
