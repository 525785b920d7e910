open Atp_util

(* [next.(i)] is the position of the next request for [trace.(i)] after
   [i], or [never] if there is none.  The victim search uses a lazy
   max-heap of (next_use, page): an entry is current iff the residency
   table still maps the page to that next-use time. *)

let never = max_int

type t = {
  capacity : int;
  trace : int array;
  next : int array;
  resident : Int_table.t;                  (* page -> its next use time *)
  heap : (int * int) Heap.t;               (* (next_use, page), max-first *)
  mutable step : int;
}

let compute_next trace =
  let n = Array.length trace in
  let next = Array.make n never in
  let last_seen = Int_table.create () in
  for i = n - 1 downto 0 do
    (match Int_table.find last_seen trace.(i) with
     | Some j -> next.(i) <- j
     | None -> next.(i) <- never);
    Int_table.set last_seen trace.(i) i
  done;
  next

let create ~capacity trace =
  if capacity < 1 then invalid_arg "Opt.create: capacity must be at least 1";
  {
    capacity;
    trace;
    next = compute_next trace;
    resident = Int_table.create ();
    heap = Heap.create ~cmp:(fun (a, _) (b, _) -> compare b a) ();
    step = 0;
  }

let capacity t = t.capacity

let size t = Int_table.length t.resident

let mem t page = Int_table.mem t.resident page

let rec pop_victim t =
  match Heap.pop t.heap with
  | None -> assert false
  | Some (next_use, page) ->
    (match Int_table.find t.resident page with
     | Some current when current = next_use -> page
     | _ -> pop_victim t)

let access t page =
  if t.step >= Array.length t.trace then
    invalid_arg "Opt.access: trace exhausted";
  if t.trace.(t.step) <> page then
    invalid_arg "Opt.access: request deviates from the trace";
  let next_use = t.next.(t.step) in
  t.step <- t.step + 1;
  let evicted =
    if mem t page then Policy.fast_hit
    else if size t = t.capacity then begin
      let victim = pop_victim t in
      ignore (Int_table.remove t.resident victim);
      victim
    end
    else Policy.fast_miss_free
  in
  Int_table.set t.resident page next_use;
  Heap.push t.heap (next_use, page);
  evicted

let remove t page = Int_table.remove t.resident page

let resident t = Int_table.keys t.resident

let misses ~capacity trace =
  let t = create ~capacity trace in
  let count = ref 0 in
  Array.iter
    (fun page -> if Policy.fast_is_miss (access t page) then incr count)
    trace;
  !count

let instance ~capacity trace =
  let t = create ~capacity trace in
  {
    Policy.name = "opt";
    capacity;
    size = (fun () -> size t);
    mem = (fun page -> mem t page);
    access = (fun page -> Policy.outcome_of_fast (access t page));
    access_fast = (fun page -> access t page);
    remove = (fun page -> remove t page);
    resident = (fun () -> resident t);
  }
