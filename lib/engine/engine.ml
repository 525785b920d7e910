open Atp_core
open Atp_workloads
open Atp_util
module Obs = Atp_obs

type config = {
  shards : int;
  epoch_len : int;
  warmup : int;
  domains : int option;
}

let default_config =
  { shards = 4; epoch_len = 1 lsl 20; warmup = 1 lsl 20; domains = None }

let validate_config c =
  if c.shards < 1 then invalid_arg "Engine: shards must be positive";
  match c.domains with
  | Some d when d < 1 -> invalid_arg "Engine: domains must be positive"
  | Some _ | None -> ()

(* Replay is exact: the pipeline applies D to X's and Y's decisions in
   stream order, on one simulator. *)
let documented_error_bound = 0.

type totals = {
  accesses : int;
  ios : int;
  tlb_fills : int;
  decoding_misses : int;
  failures : int;
  max_bucket_load : int;
  epochs : int;
  warmup_replayed : int;
}

let empty_totals =
  {
    accesses = 0;
    ios = 0;
    tlb_fills = 0;
    decoding_misses = 0;
    failures = 0;
    max_bucket_load = 0;
    epochs = 0;
    warmup_replayed = 0;
  }

let cost ~epsilon t =
  float_of_int t.ios
  +. (epsilon *. float_of_int (t.tlb_fills + t.decoding_misses))

let add_report t (r : Simulation.report) ~warmup_len =
  {
    accesses = t.accesses + r.Simulation.accesses;
    ios = t.ios + r.Simulation.ios;
    tlb_fills = t.tlb_fills + r.Simulation.tlb_fills;
    decoding_misses = t.decoding_misses + r.Simulation.decoding_misses;
    failures = t.failures + r.Simulation.failures_total;
    max_bucket_load = max t.max_bucket_load r.Simulation.max_bucket_load;
    epochs = t.epochs + 1;
    warmup_replayed = t.warmup_replayed + warmup_len;
  }

let pp_totals ppf t =
  Format.fprintf ppf
    "epochs=%d accesses=%a ios=%a tlb-fills=%a decoding-misses=%a \
     failures=%a max-bucket-load=%d warmup-replayed=%a"
    t.epochs Stats.pp_count t.accesses Stats.pp_count t.ios Stats.pp_count
    t.tlb_fills Stats.pp_count t.decoding_misses Stats.pp_count t.failures
    t.max_bucket_load Stats.pp_count t.warmup_replayed

type source = unit -> int option

let source_of_array trace =
  let pos = ref 0 in
  fun () ->
    if !pos >= Array.length trace then None
    else begin
      let page = trace.(!pos) in
      incr pos;
      Some page
    end

let source_of_workload w ~n =
  if n < 0 then invalid_arg "Engine.source_of_workload: negative n";
  let left = ref n in
  fun () ->
    if !left <= 0 then None
    else begin
      decr left;
      Some (w.Workload.next ())
    end

(* One hand-off block: stage 1's decisions for up to [block_len]
   consecutive references — each page with X's and Y's access codes. *)
let block_len = 16_384

type block = {
  pages : int array;
  x_codes : int array;
  y_codes : int array;
  mutable len : int;
}

let make_block () =
  {
    pages = Array.make block_len 0;
    x_codes = Array.make block_len 0;
    y_codes = Array.make block_len 0;
    len = 0;
  }

(* Stage 1: pull the next block of references and run X and Y on them.
   Touches only the source and the two policies.  [false] once the
   source has ended. *)
let[@atplint.hot] decide sim source b =
  let n = ref 0 and more = ref true in
  while !more && !n < block_len do
    match source () with
    | Some page ->
      b.pages.(!n) <- page;
      b.x_codes.(!n) <- Simulation.x_code sim page;
      b.y_codes.(!n) <- Simulation.y_code sim page;
      incr n
    | None -> more := false
  done;
  b.len <- !n;
  !more

(* Stage 2: apply D, counters and trace events to a block, in order. *)
let[@atplint.hot] apply sim b =
  for i = 0 to b.len - 1 do
    Simulation.apply sim b.pages.(i) b.x_codes.(i) b.y_codes.(i)
  done

let replay ?obs ?clock ~config ~make_sim source =
  validate_config config;
  let obs = match obs with Some o -> o | None -> Obs.Scope.null () in
  let clock = match clock with Some f -> f | None -> fun () -> 0. in
  let c_epochs = Obs.Scope.counter obs "epochs"
  and c_merge_ns = Obs.Scope.counter obs "merge_ns" in
  (* Registered for snapshot stability; it stays 0, because no
     reference is replayed twice. *)
  ignore (Obs.Scope.counter obs "warmup_discarded" : Obs.Counter.t);
  let sim = make_sim () in
  let domains = if config.shards = 1 then Some 1 else config.domains in
  Parallel.pipeline ?domains ~make:make_block
    ~produce:(fun b -> decide sim source b)
    ~consume:(fun b -> apply sim b)
    ();
  let t0 = clock () in
  let totals = add_report empty_totals (Simulation.report sim) ~warmup_len:0 in
  Obs.Counter.incr c_epochs;
  Obs.Counter.add c_merge_ns (int_of_float ((clock () -. t0) *. 1e9));
  totals

let replay_sequential ?obs ~make_sim source =
  let obs = match obs with Some o -> o | None -> Obs.Scope.null () in
  let c_epochs = Obs.Scope.counter obs "epochs" in
  let sim = make_sim () in
  let eof = ref false in
  while not !eof do
    match source () with
    | Some page -> Simulation.access sim page
    | None -> eof := true
  done;
  Obs.Counter.incr c_epochs;
  add_report empty_totals (Simulation.report sim) ~warmup_len:0

(* --- tenant-partitioned replay ------------------------------------ *)

type tenant_event =
  | Tarrive of { tenant : int }
  | Taccess of { tenant : int; page : int }
  | Tdepart of { tenant : int }

type tenant_source = unit -> tenant_event option

type tenant_report = { tenant : int; report : Simulation.report }

let pp_tenant_report ppf t =
  Format.fprintf ppf "tenant=%d %a" t.tenant Simulation.pp_report t.report

(* Additive bookkeeping returned from each partition, folded into obs
   counters by the caller: worker domains never touch shared state. *)
type partition_counts = { arrived : int; departed : int; accessed : int }

(* Replay the tenants owned by [shard] (tenant mod shards = shard),
   one private simulator per active tenant, created on first sight and
   dropped at departure — memory is O(active tenants in this
   partition).  A tenant's report is finalized at its Tdepart, or at
   end of stream (in tenant-id order) if it never departs. *)
let run_partition ~shard ~shards ~make_sim source =
  let sims = Int_table.Poly.create () in
  let out = ref [] in
  let arrived = ref 0 and departed = ref 0 and accessed = ref 0 in
  let get tenant =
    if tenant < 0 then invalid_arg "Engine: negative tenant id";
    match Int_table.Poly.find sims tenant with
    | Some s -> s
    | None ->
      let s = make_sim tenant in
      incr arrived;
      Int_table.Poly.set sims tenant s;
      s
  in
  let owned tenant =
    if tenant < 0 then invalid_arg "Engine: negative tenant id";
    tenant mod shards = shard
  in
  let finished = ref false in
  while not !finished do
    match source () with
    | None -> finished := true
    | Some (Tarrive { tenant }) -> if owned tenant then ignore (get tenant)
    | Some (Taccess { tenant; page }) ->
      if owned tenant then begin
        Simulation.access (get tenant) page;
        incr accessed
      end
    | Some (Tdepart { tenant }) -> (
      if owned tenant then
        match Int_table.Poly.find sims tenant with
        | None -> ()
        | Some s ->
          incr departed;
          ignore (Int_table.Poly.remove sims tenant);
          out := { tenant; report = Simulation.report s } :: !out)
  done;
  let rest = Int_table.Poly.fold (fun t s acc -> (t, s) :: acc) sims [] in
  List.iter
    (fun (tenant, s) -> out := { tenant; report = Simulation.report s } :: !out)
    (List.sort (fun (a, _) (b, _) -> Int.compare a b) rest);
  ( List.rev !out,
    { arrived = !arrived; departed = !departed; accessed = !accessed } )

let by_tenant a b = Int.compare a.tenant b.tenant

let replay_tenants ?obs ?domains ~shards ~make_sim make_source =
  if shards < 1 then invalid_arg "Engine.replay_tenants: shards must be positive";
  let obs = match obs with Some o -> o | None -> Obs.Scope.null () in
  let c_tenants = Obs.Scope.counter obs "tenants"
  and c_departures = Obs.Scope.counter obs "tenant_departures"
  and c_accesses = Obs.Scope.counter obs "tenant_accesses" in
  let parts =
    Parallel.map ?domains
      (fun shard ->
        let source = make_source () in
        run_partition ~shard ~shards ~make_sim source)
      (List.init shards (fun i -> i))
  in
  List.iter
    (fun (_, c) ->
      Obs.Counter.add c_tenants c.arrived;
      Obs.Counter.add c_departures c.departed;
      Obs.Counter.add c_accesses c.accessed)
    parts;
  (* Stable by tenant id: instances of a reappearing id stay in stream
     order, and the merged list is independent of the shard count. *)
  List.stable_sort by_tenant (List.concat_map fst parts)

let replay_tenants_sequential ?obs ~make_sim source =
  replay_tenants ?obs ~domains:1 ~shards:1 ~make_sim (fun () -> source)

let tenant_totals reports =
  List.fold_left
    (fun t { report = r; _ } -> add_report t r ~warmup_len:0)
    empty_totals reports
