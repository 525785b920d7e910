open Atp_util

type t = {
  capacity : int;
  kin : int;        (* target size of a1in *)
  kout : int;       (* capacity of the ghost queue *)
  a1in : Page_list.t;   (* FIFO, resident *)
  a1out : Page_list.t;  (* FIFO of ghosts (addresses only) *)
  am : Page_list.t;     (* LRU, resident *)
}

let name = "2q"

let create ?rng ~capacity () =
  ignore rng;
  if capacity < 1 then invalid_arg "Two_q.create: capacity must be at least 1";
  (* The parameters recommended in the paper: Kin = 25%, Kout = 50%. *)
  let kin = max 1 (capacity / 4) in
  let kout = max 1 (capacity / 2) in
  {
    capacity;
    kin;
    kout;
    a1in = Page_list.create ();
    a1out = Page_list.create ();
    am = Page_list.create ();
  }

let capacity t = t.capacity

let size t = Page_list.length t.a1in + Page_list.length t.am

let mem t page = Page_list.mem t.a1in page || Page_list.mem t.am page

(* Free one resident slot, returning the evicted page. *)
let reclaim t =
  if Page_list.length t.a1in > t.kin || Page_list.is_empty t.am then begin
    let victim = Page_list.take_back t.a1in in
    (* a1in empty and am empty cannot happen when the cache is full. *)
    if victim < 0 then assert false;
    if Page_list.length t.a1out >= t.kout then
      ignore (Page_list.take_back t.a1out : int);
    Page_list.push_front t.a1out victim;
    victim
  end
  else begin
    let victim = Page_list.take_back t.am in
    if victim < 0 then assert false;
    victim
  end

let access t page =
  if Page_list.mem t.am page then begin
    Page_list.move_to_front t.am page;
    Policy.fast_hit
  end
  else if Page_list.mem t.a1in page then
    (* Still in probation: a hit, but no promotion. *)
    Policy.fast_hit
  else begin
    let evicted =
      if size t >= t.capacity then reclaim t else Policy.fast_miss_free
    in
    if Page_list.mem t.a1out page then begin
      (* Re-reference after probation: promote into the main queue. *)
      ignore (Page_list.remove t.a1out page);
      Page_list.push_front t.am page
    end
    else Page_list.push_front t.a1in page;
    evicted
  end

let remove t page =
  Page_list.remove t.a1in page || Page_list.remove t.am page

let resident t = Page_list.to_list t.a1in @ Page_list.to_list t.am
