(* A fixed probe of the host's speed, run on one domain before and
   after every replay so that the replay's timings can be scaled to a
   nominal host speed.

   On a host shared with other tenants, the speed a process gets drifts
   by a factor of two or more over minutes, for memory-bound and
   compute-bound code alike.  The probe is an LRU list of its own
   (nothing from the library), so it slows down with the host
   but never with a change to the program: a replay's time divided by
   the probe's time next to it is steadier than either alone.

   The probe's cache is built once per process: a direct-mapped table
   over 2^14 keys and as many LRU nodes (384 KiB, inside a core's L2),
   driven by a fixed key stream that is mostly a hot set of 2^13 keys
   with a uniform tail.  Every key fits, so each access is a lookup and
   a move to the front: the probe follows the core's speed and L2
   latency, which every workload depends on, and not DRAM contention,
   which only some do.  A probe with tables larger than L2 tracked the
   workloads less well. *)

let universe = 1 lsl 14

let hot = 1 lsl 13

let ops = 200_000

type t = {
  where : int array;  (** key -> node, or -1 before the key's first access *)
  prev : int array;
  next : int array;
  mutable head : int;  (** most recently used *)
  mutable tail : int;  (** least recently used *)
  mutable used : int;
  mutable x : int;  (** xorshift state; the stream continues across batches *)
}

let cache () =
  {
    where = Array.make universe (-1);
    prev = Array.make universe (-1);
    next = Array.make universe (-1);
    head = -1;
    tail = -1;
    used = 0;
    x = 0x2545F4914F6CDD1D;
  }

let unlink c n =
  let p = c.prev.(n) and q = c.next.(n) in
  if p >= 0 then c.next.(p) <- q else c.head <- q;
  if q >= 0 then c.prev.(q) <- p else c.tail <- p

let push_front c n =
  c.prev.(n) <- -1;
  c.next.(n) <- c.head;
  if c.head >= 0 then c.prev.(c.head) <- n;
  c.head <- n;
  if c.tail < 0 then c.tail <- n

let access c k =
  let n = c.where.(k) in
  if n < 0 then begin
    let n = c.used in
    c.used <- n + 1;
    c.where.(k) <- n;
    push_front c n
  end
  else if n <> c.head then begin
    unlink c n;
    push_front c n
  end

let next_key c =
  let x = c.x in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  c.x <- x;
  if x land 7 <> 0 then (x lsr 3) land (hot - 1) else (x lsr 3) land (universe - 1)

let run c =
  for _ = 1 to ops do
    access c (next_key c)
  done

let once c =
  let t0 = Unix.gettimeofday () in
  run c;
  Unix.gettimeofday () -. t0

let create () =
  let c = cache () in
  run c;
  c

(* The probe's seconds for one fixed batch of accesses: the median of
   [batches] batches. *)
let batches = 5

let probe c =
  let times = Array.init batches (fun _ -> once c) in
  Array.sort Float.compare times;
  times.(batches / 2)

(* The nominal host speed: one batch of the probe takes [reference_s].
   Scaled figures are what the program would measure on such a host.
   The figure is a round one and cancels when two runs are compared. *)
let reference_s = 0.004
