type anno = {
  mutable paint : int;
  mutable dst_ip : Ipaddr.t;
  mutable fix_ip_src : bool;
  mutable device : int;
  mutable timestamp_ns : int;
  mutable link_type : link_type;
}

and link_type = To_host | Broadcast | Multicast | To_other

(* Unsafe fixed-width word loads/stores: compiler primitives compiling to
   single (unaligned-capable) native memory instructions. All bounds
   checking is hoisted to one range check per accessor call; the 16-bit
   primitives are native-endian, converted to network order with a
   register byte swap. *)
external by_get16u : bytes -> int -> int = "%caml_bytes_get16u"
external by_set16u : bytes -> int -> int -> unit = "%caml_bytes_set16u"
external swap16 : int -> int = "%bswap16"

let[@inline] to_be16 v = if Sys.big_endian then v else swap16 v

(* The packet descriptor: [head]/[len] delimit the live data window
   within [buf]; the bytes before it are headroom, the bytes after it
   tailroom. *)
type t = {
  mutable buf : bytes;
  mutable head : int;
  mutable len : int;
  mutable in_pool : bool;
  mutable id : int;
  anno : anno;
}

(* Packet identities are process-global serial numbers: every packet that
   comes into existence — created, cloned, or reused from a pool — gets a
   fresh one, so a trace can follow an individual packet even when its
   buffer is recycled. The counter is atomic so packets born on different
   domains (the sharded datapath) still get distinct identities. *)
let id_counter = Atomic.make 0

let fresh_id () = Atomic.fetch_and_add id_counter 1 + 1

let fresh_anno () =
  {
    paint = -1;
    dst_ip = 0;
    fix_ip_src = false;
    device = -1;
    timestamp_ns = 0;
    link_type = To_host;
  }

let default_headroom = 34

let make buf ~head ~len =
  { buf; head; len; in_pool = false; id = fresh_id (); anno = fresh_anno () }

(* --- constructors ------------------------------------------------------- *)

let create ?(headroom = default_headroom) ?(tailroom = default_headroom) len =
  if len < 0 || headroom < 0 || tailroom < 0 then invalid_arg "Packet.create";
  make (Bytes.make (headroom + len + tailroom) '\000') ~head:headroom ~len

(* One allocation and one payload copy: the buffer is created uninitialized,
   the head/tail scratch regions zeroed, and the payload blitted once. *)
let of_window ?(headroom = default_headroom) ?(tailroom = default_headroom)
    ~len blit_payload =
  if headroom < 0 || tailroom < 0 then invalid_arg "Packet.of_bytes";
  let buf = Bytes.create (headroom + len + tailroom) in
  Bytes.fill buf 0 headroom '\000';
  blit_payload buf headroom;
  Bytes.fill buf (headroom + len) tailroom '\000';
  make buf ~head:headroom ~len

let of_bytes ?headroom ?tailroom data =
  let len = Bytes.length data in
  of_window ?headroom ?tailroom ~len (fun buf off -> Bytes.blit data 0 buf off len)

let of_string ?headroom ?tailroom s =
  let len = String.length s in
  of_window ?headroom ?tailroom ~len (fun buf off ->
      Bytes.blit_string s 0 buf off len)

let grab ?(headroom = 0) data =
  if headroom < 0 || headroom > Bytes.length data then invalid_arg "Packet.grab";
  make data ~head:headroom ~len:(Bytes.length data - headroom)

let length p = p.len
let anno p = p.anno
let id p = p.id
let headroom p = p.head
let tailroom p = Bytes.length p.buf - p.head - p.len
let data_offset p = p.head

let clone p =
  {
    buf = Bytes.copy p.buf;
    head = p.head;
    len = p.len;
    in_pool = false;
    id = fresh_id ();
    anno = { p.anno with paint = p.anno.paint };
  }

(* --- window adjustment --------------------------------------------------- *)

(* Reallocate, preserving the data window with [extra_head] bytes of
   headroom before it and [extra_tail] of tailroom after it. *)
let grow p ~extra_head ~extra_tail =
  let buf = Bytes.make (extra_head + p.len + extra_tail) '\000' in
  Bytes.blit p.buf p.head buf extra_head p.len;
  p.buf <- buf;
  p.head <- extra_head

let push p n =
  if n < 0 then invalid_arg "Packet.push";
  if n > p.head then grow p ~extra_head:(n + default_headroom) ~extra_tail:(tailroom p);
  p.head <- p.head - n;
  p.len <- p.len + n

let pull p n =
  if n < 0 || n > p.len then invalid_arg "Packet.pull";
  p.head <- p.head + n;
  p.len <- p.len - n

let put p n =
  if n < 0 then invalid_arg "Packet.put";
  if n > tailroom p then grow p ~extra_head:p.head ~extra_tail:(n + default_headroom);
  Bytes.fill p.buf (p.head + p.len) n '\000';
  p.len <- p.len + n

let take p n =
  if n < 0 || n > p.len then invalid_arg "Packet.take";
  p.len <- p.len - n

(* --- data access --------------------------------------------------------- *)

let check p pos width =
  if pos < 0 || pos + width > p.len then
    invalid_arg
      (Printf.sprintf "Packet: access at %d width %d beyond length %d" pos
         width p.len)

let get_u8 p pos =
  check p pos 1;
  Char.code (Bytes.unsafe_get p.buf (p.head + pos))

let set_u8 p pos v =
  check p pos 1;
  Bytes.unsafe_set p.buf (p.head + pos) (Char.unsafe_chr (v land 0xff))

let get_u16 p pos =
  check p pos 2;
  to_be16 (by_get16u p.buf (p.head + pos))

let set_u16 p pos v =
  check p pos 2;
  by_set16u p.buf (p.head + pos) (to_be16 v)

let get_u32 p pos =
  check p pos 4;
  let o = p.head + pos in
  (to_be16 (by_get16u p.buf o) lsl 16) lor to_be16 (by_get16u p.buf (o + 2))

let set_u32 p pos v =
  check p pos 4;
  let o = p.head + pos in
  by_set16u p.buf o (to_be16 ((v lsr 16) land 0xffff));
  by_set16u p.buf (o + 2) (to_be16 (v land 0xffff))

let get_string p ~pos ~len =
  check p pos len;
  Bytes.sub_string p.buf (p.head + pos) len

let set_string p ~pos s =
  check p pos (String.length s);
  Bytes.blit_string s 0 p.buf (p.head + pos) (String.length s)

let to_string p = get_string p ~pos:0 ~len:p.len

let blit ~src ~src_pos ~dst ~dst_pos ~len =
  if len < 0 then invalid_arg "Packet.blit";
  check src src_pos len;
  check dst dst_pos len;
  Bytes.blit src.buf (src.head + src_pos) dst.buf (dst.head + dst_pos) len

let ones_complement_sum p ~pos ~len =
  check p pos len;
  Checksum.ones_complement_sum p.buf ~pos:(p.head + pos) ~len

let checksum p ~pos ~len =
  check p pos len;
  Checksum.checksum p.buf ~pos:(p.head + pos) ~len

let alignment p = data_offset p mod 4

let realign p ~modulus ~offset =
  if modulus <= 0 || offset < 0 || offset >= modulus then
    invalid_arg "Packet.realign";
  if data_offset p mod modulus <> offset then begin
    (* Copy into a fresh buffer whose head satisfies the constraint and
       keeps the default headroom available. *)
    let head = ((default_headroom / modulus) + 1) * modulus + offset in
    let buf = Bytes.make (head + p.len + default_headroom) '\000' in
    Bytes.blit p.buf p.head buf head p.len;
    p.buf <- buf;
    p.head <- head
  end

module Pool = struct
  type packet = t

  type t = {
    free : packet array; (* descriptor free list; [0, nfree) live *)
    mutable nfree : int;
    capacity : int;
    placeholder : packet; (* fills unused [free] cells *)
    mutable owner : int; (* owning domain id; -1 = unclaimed *)
    mutable allocs : int;
    mutable reuses : int;
    mutable recycles : int;
    mutable rejected : int;
    mutable heap_bufs : int;
  }

  type stats = {
    st_allocs : int;
    st_reuses : int;
    st_recycles : int;
    st_rejected : int;
    st_free : int;
    st_heap_bufs : int;
  }

  (* 2048 bytes: an MTU frame plus default head/tailroom fits, and a
     buffer this size is above the minor heap's largest block (256
     words), so a fresh one is allocated straight into the major heap and
     adds nothing to the minor-heap figure. *)
  let buf_size = 2048

  (* A pool is single-domain-owned: the descriptor free list is a plain
     array stack and [alloc]/[recycle] mutate it without synchronization,
     so a packet recycled by one domain must never be resurrected by
     another. The pool claims the domain that first touches it (normally
     its creator); [detach] hands an untouched pool to whichever domain
     uses it next. The claim is checked with [assert] on every hot-path
     operation, so debug builds catch cross-domain aliasing at the exact
     faulty call while release builds compiled with [-noassert] pay
     nothing. *)
  let create ?(capacity = 1024) () =
    if capacity < 0 then invalid_arg "Packet.Pool.create";
    let placeholder = create 0 in
    {
      free = Array.make capacity placeholder;
      nfree = 0;
      capacity;
      placeholder;
      owner = (Domain.self () :> int);
      allocs = 0;
      reuses = 0;
      recycles = 0;
      rejected = 0;
      heap_bufs = 0;
    }

  let detach pool = pool.owner <- -1

  let owned_by_caller pool =
    let self = (Domain.self () :> int) in
    if pool.owner = -1 then pool.owner <- self;
    pool.owner = self

  let reset_anno a =
    a.paint <- -1;
    a.dst_ip <- 0;
    a.fix_ip_src <- false;
    a.device <- -1;
    a.timestamp_ns <- 0;
    a.link_type <- To_host

  (* A zeroed buffer for a request of [need] bytes: one of the pool's
     size class, so the descriptor can later serve any request up to that
     size, or an exact-size one (counted) for a request beyond it. *)
  let fresh_buffer pool need =
    if need <= buf_size then Bytes.make buf_size '\000'
    else begin
      pool.heap_bufs <- pool.heap_bufs + 1;
      Bytes.make need '\000'
    end

  let alloc pool ?(headroom = default_headroom) ?(tailroom = default_headroom)
      len =
    if len < 0 || headroom < 0 || tailroom < 0 then
      invalid_arg "Packet.Pool.alloc";
    assert (owned_by_caller pool);
    let need = headroom + len + tailroom in
    if pool.nfree = 0 then begin
      pool.allocs <- pool.allocs + 1;
      make (fresh_buffer pool need) ~head:headroom ~len
    end
    else begin
      pool.nfree <- pool.nfree - 1;
      let p = pool.free.(pool.nfree) in
      pool.free.(pool.nfree) <- pool.placeholder;
      pool.reuses <- pool.reuses + 1;
      (* Re-zero only the data window on reuse — headroom/tailroom are
         scratch space whose contents [push]/[put] manage themselves,
         exactly as for a fresh [create]. Safe because [clone] never
         shares buffers: a recycled packet's storage has no other live
         referent. Free-list buffers are at least the size class, so
         only a request beyond it replaces the buffer. *)
      if Bytes.length p.buf >= need then Bytes.fill p.buf headroom len '\000'
      else p.buf <- fresh_buffer pool need;
      p.head <- headroom;
      p.len <- len;
      p.in_pool <- false;
      p.id <- fresh_id ();
      reset_anno p.anno;
      p
    end

  (* No copy on recycle: the descriptor, buffer and all, is pushed onto
     the free list; payload bytes stay where they are. A packet handed
     over from another domain is recycled here like a local one. *)
  let recycle pool p =
    assert (owned_by_caller pool);
    (* Guard against double-recycle: a packet already on the free list is
       left alone, so recycling from both a drop hook and a transmit path
       can never corrupt the pool. A full pool drops the packet to the
       GC, and so does a buffer below the size class (a [create]d ICMP
       error, say): at steady state the pool is full, so taking it would
       push out a class buffer and cost a fresh one when a large request
       pops the small one. *)
    if p.in_pool || pool.nfree >= pool.capacity || Bytes.length p.buf < buf_size
    then
      pool.rejected <- pool.rejected + 1
    else begin
      p.in_pool <- true;
      pool.recycles <- pool.recycles + 1;
      pool.free.(pool.nfree) <- p;
      pool.nfree <- pool.nfree + 1
    end

  let stats pool =
    {
      st_allocs = pool.allocs;
      st_reuses = pool.reuses;
      st_recycles = pool.recycles;
      st_rejected = pool.rejected;
      st_free = pool.nfree;
      st_heap_bufs = pool.heap_bufs;
    }
end
