module Obs = Atp_obs

type metrics = {
  tr : Obs.Trace.t;
  c_accesses : Obs.Counter.t;
  c_hits : Obs.Counter.t;
  c_misses : Obs.Counter.t;
  c_evictions : Obs.Counter.t;
}

let metrics_of obs =
  {
    tr = Obs.Scope.tracer obs;
    c_accesses = Obs.Scope.counter obs "accesses";
    c_hits = Obs.Scope.counter obs "hits";
    c_misses = Obs.Scope.counter obs "misses";
    c_evictions = Obs.Scope.counter obs "evictions";
  }

let record m page f =
  Obs.Counter.incr m.c_accesses;
  if Policy.fast_is_hit f then Obs.Counter.incr m.c_hits
  else begin
    Obs.Counter.incr m.c_misses;
    let victim = Policy.fast_evicted f in
    if victim >= 0 then begin
      Obs.Counter.incr m.c_evictions;
      Obs.Trace.record m.tr Obs.Event.Eviction victim page
    end
  end

module Make (P : Policy.S) = struct
  type t = { inner : P.t; m : metrics }

  let name = P.name

  let create_observed ?rng ?obs ~capacity () =
    let obs = match obs with Some o -> o | None -> Obs.Scope.null () in
    { inner = P.create ?rng ~capacity (); m = metrics_of obs }

  let create ?rng ~capacity () = create_observed ?rng ~capacity ()

  let capacity t = P.capacity t.inner

  let size t = P.size t.inner

  let mem t page = P.mem t.inner page

  let access t page =
    let f = P.access t.inner page in
    record t.m page f;
    f

  let remove t page = P.remove t.inner page

  let resident t = P.resident t.inner
end

let wrap ~obs (inst : Policy.instance) =
  let m = metrics_of obs in
  let access_fast page =
    let f = inst.Policy.access_fast page in
    record m page f;
    f
  in
  {
    inst with
    Policy.access = (fun page -> Policy.outcome_of_fast (access_fast page));
    access_fast;
  }
