(* The node's modeled address space is [0, capacity); the host holds
   only a prefix of it.  Every word past the prefix has never been
   written (a write past the end grows the prefix first), so it reads
   as 0.0: the prefix is the exact image of an eager zero-filled store
   of [capacity] words.  Bounds are always checked against the
   capacity, never against the prefix. *)
type t = { capacity : int; mutable store : float array; mutable next_free : int }
type region = { base : int; words : int }

let create ~words =
  if words <= 0 then invalid_arg "Memory.create: non-positive size";
  { capacity = words; store = [||]; next_free = 0 }

let words t = t.capacity
let raw t = t.store

(* Materialize at least [n <= capacity] words.  Growth at least
   doubles the prefix, so a run of allocations writes O(final size)
   words in all, each new word once (copied or zeroed, never both); a
   doubled prefix never exceeds twice the request that caused it. *)
let grow t n =
  let len = Array.length t.store in
  if n > len then begin
    let grown = min t.capacity (max n (2 * len)) in
    let store = Array.create_float grown in
    Array.blit t.store 0 store 0 len;
    Array.fill store len (grown - len) 0.0;
    t.store <- store
  end

let reserve t n =
  if n < 0 || n > t.capacity then
    invalid_arg
      (Printf.sprintf "Memory.reserve: %d words outside a %d-word capacity" n
         t.capacity);
  grow t n

let read t addr =
  if addr < 0 || addr >= t.capacity then
    invalid_arg (Printf.sprintf "Memory.read: address %d out of bounds" addr);
  if addr < Array.length t.store then t.store.(addr) else 0.0

let write t addr v =
  if addr < 0 || addr >= t.capacity then
    invalid_arg (Printf.sprintf "Memory.write: address %d out of bounds" addr);
  if addr >= Array.length t.store then grow t (addr + 1);
  t.store.(addr) <- v

let alloc t ~words:n =
  if n < 0 then invalid_arg "Memory.alloc: negative size";
  if t.next_free + n > t.capacity then
    failwith
      (Printf.sprintf "Memory.alloc: out of node memory (%d requested, %d free)"
         n (t.capacity - t.next_free));
  let region = { base = t.next_free; words = n } in
  t.next_free <- t.next_free + n;
  grow t t.next_free;
  region

let free_all_after t region =
  let high = region.base + region.words in
  if high > t.next_free then invalid_arg "Memory.free_all_after: stale region";
  t.next_free <- high

let words_free t = t.capacity - t.next_free

let blit_out t region =
  if region.base < 0 || region.base + region.words > t.capacity then
    invalid_arg "Memory.blit_out: bad region";
  let len = Array.length t.store in
  (* A negative size falls through to [Array.sub]'s own rejection, as
     it does on a full-capacity store. *)
  if region.words < 0 || region.base + region.words <= len then
    Array.sub t.store region.base region.words
  else begin
    let out = Array.make region.words 0.0 in
    if region.base < len then
      Array.blit t.store region.base out 0 (len - region.base);
    out
  end

let blit_in t region data =
  if Array.length data <> region.words then
    invalid_arg "Memory.blit_in: size mismatch";
  (* An in-capacity region is materialized first; any other is left to
     [Array.blit]'s own bounds rejection, as on a full-capacity store. *)
  if region.base >= 0 && region.base + region.words <= t.capacity then
    grow t (region.base + region.words);
  Array.blit data 0 t.store region.base region.words
