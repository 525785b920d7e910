open Atp_util

type translation =
  | Frame of int
  | Decode_fault
  | Not_covered

(* Per-huge-page state is flat.  Each huge page u gets a dense slot
   the first time any call touches it, and keeps it for good; [slots]
   is the only hash table, probed once per call.  ψ of slot s is
   fields [s·h_max, (s+1)·h_max) of one packed [arena], and TLB
   membership is one byte per slot.  A field is non-null exactly when
   its page is resident and placed, so a huge page with nothing
   resident holds an all-null ψ and decodes as if it had none.  The
   TLB view and the shadow read the same arena field, so a residency
   change updates a loaded TLB entry for free — which is exactly the
   model's free ψ update. *)

type t = {
  params : Params.t;
  alloc : Alloc.t;
  enc : Encoding.t;
  slots : Int_table.t;  (* huge page -> slot *)
  mutable used : int;  (* slots assigned so far *)
  mutable arena : Encoding.arena;
  mutable in_tlb : Bytes.t;  (* slot -> '\001' when covered *)
  mutable tlb_count : int;
}

let initial_slots = 1024

let create ?seed params =
  let alloc = Alloc.create ?seed params in
  let enc = Encoding.create alloc in
  {
    params;
    alloc;
    enc;
    slots = Int_table.create ~initial_capacity:4096 ();
    used = 0;
    arena = Encoding.create_arena enc ~slots:initial_slots;
    in_tlb = Bytes.make initial_slots '\000';
    tlb_count = 0;
  }

let params t = t.params

let alloc t = t.alloc

let h_max t = Encoding.h_max t.enc

let[@inline] [@atplint.hot] huge_of t v = Encoding.huge_of t.enc v

let grow t =
  let slots = 2 * Bytes.length t.in_tlb in
  t.arena <- Encoding.grow_arena t.enc t.arena ~slots;
  let in_tlb = Bytes.make slots '\000' in
  Bytes.blit t.in_tlb 0 in_tlb 0 t.used;
  t.in_tlb <- in_tlb

(* u's slot, assigned (with an all-null ψ) on first touch. *)
let[@atplint.hot] slot_of t u =
  let s = Int_table.find_or_add t.slots u t.used in
  if s = t.used then begin
    if s = Bytes.length t.in_tlb then grow t;
    Encoding.clear_slot t.enc t.arena s;
    t.used <- s + 1
  end;
  s

(* u's slot, or [-1] if no call has touched u yet. *)
let[@inline] [@atplint.hot] find_slot t u = Int_table.find_or t.slots u (-1)

let[@inline] [@atplint.hot] covered t s =
  Bytes.unsafe_get t.in_tlb s <> '\000'

let[@atplint.hot] ram_insert t v =
  let code = Alloc.insert_code t.alloc v in
  let s = slot_of t (Encoding.huge_of t.enc v) in
  Encoding.set_code t.enc t.arena (Encoding.field_of t.enc ~slot:s v) code

let[@atplint.hot] ram_evict t v =
  Alloc.delete t.alloc v;
  let s = find_slot t (Encoding.huge_of t.enc v) in
  if s < 0 then assert false;
  Encoding.clear_field t.enc t.arena (Encoding.field_of t.enc ~slot:s v)

let active t = Alloc.live t.alloc

let[@atplint.hot] tlb_add t u =
  let s = slot_of t u in
  if not (covered t s) then begin
    Bytes.unsafe_set t.in_tlb s '\001';
    t.tlb_count <- t.tlb_count + 1
  end

let[@atplint.hot] tlb_remove t u =
  let s = find_slot t u in
  if s >= 0 && covered t s then begin
    Bytes.unsafe_set t.in_tlb s '\000';
    t.tlb_count <- t.tlb_count - 1
  end

let[@atplint.hot] tlb_mem t u =
  let s = find_slot t u in
  s >= 0 && covered t s

let tlb_size t = t.tlb_count

(* The allocation-free translate: [>= 0] is the frame,
   [fault_code] a decoding fault, [not_covered_code] a TLB miss. *)
let fault_code = -1

let not_covered_code = -2

(* f on slot [s]'s ψ: [Encoding.decode] already answers [-1], which
   is [fault_code], for a null field. *)
let[@inline] [@atplint.hot] decode_in t s v =
  Encoding.decode t.enc t.arena (Encoding.field_of t.enc ~slot:s v) v

(* The covered-case body, shared with {!translate_code}: callers that
   have just ensured coverage (the replay loop adds u to the TLB on an
   X miss before translating) skip the membership test. *)
let[@inline] [@atplint.hot] translate_covered_code t v u =
  let s = find_slot t u in
  if s < 0 then fault_code else decode_in t s v

let[@atplint.hot] translate_code t v =
  let s = find_slot t (Encoding.huge_of t.enc v) in
  if s < 0 || not (covered t s) then not_covered_code else decode_in t s v

let translate t v =
  let code = translate_code t v in
  if code >= 0 then Frame code
  else if code = fault_code then Decode_fault
  else Not_covered

let decoded_frame t v =
  let s = find_slot t (Encoding.huge_of t.enc v) in
  if s < 0 then None
  else
    let frame = decode_in t s v in
    if frame < 0 then None else Some frame
