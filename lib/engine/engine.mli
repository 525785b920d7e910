(** The streaming replay engine ([atp.engine]).

    Sequential replay ({!Atp_core.Simulation.run}) walks a
    fully-materialized trace; production-scale traces (billions of
    references) do not fit in RAM.  This engine consumes a {e pull
    stream} of references and replays it on {e one} simulator, in two
    stages joined by a double buffer ({!Atp_util.Parallel.pipeline}):

    - {b Stage 1} pulls the source and runs the simulator's two paging
      algorithms: X on the huge page r(p) of each reference and Y on
      the page p ({!Atp_core.Simulation.x_code} and
      {!Atp_core.Simulation.y_code}).  It writes each page and both
      access codes into a block of {!block_len} references.
    - {b Stage 2} applies the decoupling scheme D to each block in
      stream order ({!Atp_core.Simulation.apply}): the TLB membership,
      RAM insertion and eviction with ψ-update accounting, translation,
      every counter and every trace event.

    {2 Exactness}

    By Lemma 1 and Theorem 4, the combined algorithm Z is D driven by
    X on r(σ) and Y on σ, and X and Y read only the reference stream,
    never D's state.  Running them ahead of D and handing over their
    decisions in stream order therefore changes nothing:
    {!Atp_core.Simulation.access} is literally stage 2 applied to
    stage 1's codes, and {!replay} returns exactly what
    {!replay_sequential} returns, for every policy, with no warm-up and
    no error bound ([documented_error_bound = 0.]).  The differential
    suite ([test/test_engine.ml]) checks this field for field.

    {2 Domains and memory}

    With [shards >= 2] stage 1 runs on a spawned domain while stage 2
    runs on the caller's; with [shards = 1] or [domains = Some 1] the
    caller runs the same two stages in turn.  The result is the same
    either way.  Peak memory is two blocks of references plus whatever
    the source buffers (one decode chunk for a packed trace) —
    independent of the trace length.

    [make_sim] is called once, on the caller's domain, before stage 1
    starts.  The simulator's X and Y then run on the other domain, so
    they must not share an obs scope or tracer with the simulator (or
    with anything else the caller touches during the replay); no
    caller in this repository's library or CLI does. *)

type config = {
  shards : int;
      (** [1]: both stages on the caller's domain; [>= 2]: stage 1 on
          a second domain *)
  epoch_len : int;  (** not read; kept for source compatibility *)
  warmup : int;  (** not read; kept for source compatibility *)
  domains : int option;
      (** cap for {!Atp_util.Parallel.pipeline}; [None] = recommended,
          [Some 1] keeps both stages on the caller's domain *)
}

val default_config : config
(** 4 shards (two domains).  [epoch_len] and [warmup] hold their old
    defaults, 1 Mi references each, and are not read. *)

val documented_error_bound : float
(** Relative cost error ([|replay - sequential| / sequential]) of
    {!replay}: [0.], because the replay is exact. *)

val block_len : int
(** References per hand-off block between the two stages (16 Ki). *)

type totals = {
  accesses : int;  (** measured accesses (warm-up excluded) *)
  ios : int;
  tlb_fills : int;
  decoding_misses : int;
  failures : int;  (** paging failures inside measured windows *)
  max_bucket_load : int;  (** max across simulators *)
  epochs : int;
      (** simulators replayed: 1 for {!replay}, one per tenant
          instance for {!tenant_totals} *)
  warmup_replayed : int;
      (** references replayed and then discarded: 0 from {!replay},
          {!replay_sequential} and {!tenant_totals}, which replay each
          reference once *)
}

val empty_totals : totals

val cost : epsilon:float -> totals -> float
(** [ios + epsilon * (tlb_fills + decoding_misses)]: the paper's
    address-translation cost, same accounting as
    {!Atp_core.Simulation.cost}. *)

val add_report : totals -> Atp_core.Simulation.report -> warmup_len:int -> totals
(** Fold one simulator's report into the running totals (sum counters,
    max bucket load, count the simulator, add [warmup_len] to
    [warmup_replayed]). *)

val pp_totals : Format.formatter -> totals -> unit

type source = unit -> int option
(** A pull stream of page references; [None] ends the replay.
    {!Atp_workloads.Trace.Stream.source} reads one from a packed
    trace file. *)

val source_of_array : int array -> source

val source_of_workload : Atp_workloads.Workload.t -> n:int -> source
(** The workload's next [n] references.
    @raise Invalid_argument if [n] is negative. *)

val replay :
  ?obs:Atp_obs.Scope.t ->
  ?clock:(unit -> float) ->
  config:config ->
  make_sim:(unit -> Atp_core.Simulation.t) ->
  source ->
  totals
(** Two-stage replay of the stream on the one simulator [make_sim ()]
    builds (called once, on the caller's domain).  The source is
    pulled from stage 1, so with two domains it runs on the spawned
    one.  An exception from the source, a policy or the simulator is
    re-raised here with its original backtrace, after both stages have
    stopped.

    [obs] registers the engine counters [epochs] (1),
    [warmup_discarded] (0) and [merge_ns] (the time to fold the
    simulator's report into the totals, measured with [clock] when
    given — seconds, e.g. [Unix.gettimeofday] — and 0 otherwise;
    injectable so library code stays deterministic).

    @raise Invalid_argument on a non-positive [shards], or a [domains]
    cap below 1. *)

val replay_sequential :
  ?obs:Atp_obs.Scope.t ->
  make_sim:(unit -> Atp_core.Simulation.t) ->
  source ->
  totals
(** Sequential replay of the same stream through
    {!Atp_core.Simulation.access}, one reference at a time: the
    reference the differential harness compares {!replay} against. *)

(** {2 Tenant-partitioned replay}

    The fleet model interleaves thousands of short-lived address
    spaces into one stream of tagged events.  With {e reserved}
    (per-tenant) simulator state, tenants are independent, so the
    stream shards by tenant id: shard [k] of [shards] replays exactly
    the tenants with [tenant mod shards = k], each on a private
    simulator created at first sight and dropped at departure (peak
    memory is O(active tenants), not O(tenants ever seen)).  Every
    shard takes its own fresh pass over the event stream — hence the
    source {e factory} — and filters out its partition, so no
    cross-domain hand-off of events is needed.

    The merged result is a pure function of the stream: per-tenant
    reports come back sorted by tenant id (stream order among
    instances of a reappearing id) and are byte-identical across shard
    counts and to {!replay_tenants_sequential}; the differential suite
    in [test/test_fleet.ml] asserts this across policies and shard
    counts. *)

type tenant_event =
  | Tarrive of { tenant : int }  (** address space [tenant] starts *)
  | Taccess of { tenant : int; page : int }
  | Tdepart of { tenant : int }
      (** address space ends; its report is finalized here *)

type tenant_source = unit -> tenant_event option
(** A pull stream of tenant events; [None] ends the replay.  An
    access (or arrival) for an unseen tenant implicitly creates it; a
    departure for an unseen tenant is ignored; tenants never departing
    are finalized at end of stream. *)

type tenant_report = { tenant : int; report : Atp_core.Simulation.report }

val pp_tenant_report : Format.formatter -> tenant_report -> unit

val replay_tenants :
  ?obs:Atp_obs.Scope.t ->
  ?domains:int ->
  shards:int ->
  make_sim:(int -> Atp_core.Simulation.t) ->
  (unit -> tenant_source) ->
  tenant_report list
(** Tenant-sharded replay.  [make_sim tenant] builds the tenant's
    private simulator and is called from worker domains: it must be
    deterministic in [tenant] and share no mutable state across calls.
    The source factory is called once per shard and each returned
    source must replay the same event stream (build it from a seed
    inside the closure).

    [obs] registers the additive counters [tenants] (simulators
    created), [tenant_departures], and [tenant_accesses]; being sums
    over the partition, snapshots are shard-count-invariant.

    @raise Invalid_argument on a non-positive [shards] or a negative
    tenant id in the stream. *)

val replay_tenants_sequential :
  ?obs:Atp_obs.Scope.t ->
  make_sim:(int -> Atp_core.Simulation.t) ->
  tenant_source ->
  tenant_report list
(** One pass, one domain, every tenant: the reference the differential
    harness compares {!replay_tenants} against.
    @raise Invalid_argument on a negative tenant id. *)

val tenant_totals : tenant_report list -> totals
(** Fold per-tenant reports into fleet-wide totals ([epochs] counts
    tenant instances, [warmup_replayed] stays 0). *)
