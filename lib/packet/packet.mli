(** The oclick packet abstraction.

    A packet is a window onto one byte buffer, with headroom before the
    window and tailroom after it — the same model as Click's
    [Packet]/Linux's [sk_buff]. Prepending a header ({!push}) or stripping
    one ({!pull}) moves the window without copying, as long as room
    remains; past that the buffer is reallocated with the window intact.

    All multi-byte accessors are big-endian (network order), implemented
    as fixed-width word loads/stores under a single hoisted bounds check,
    and all offsets are relative to the start of the live data window. *)

(** Per-packet annotations, carried alongside the data. These mirror the
    Click annotations the standard IP router uses. *)
type anno = {
  mutable paint : int;  (** set by [Paint], read by [CheckPaint]; -1 unset *)
  mutable dst_ip : Ipaddr.t;
      (** destination-address annotation: set by [GetIPAddress], read by
          [LookupIPRoute] and [ARPQuerier] *)
  mutable fix_ip_src : bool;  (** set by [ICMPError], read by [FixIPSrc] *)
  mutable device : int;  (** input device number; -1 unset *)
  mutable timestamp_ns : int;
      (** simulated arrival time, integer nanoseconds — an immediate
          [int], so stamping a packet on the hot path never allocates a
          boxed float *)
  mutable link_type : link_type;
      (** link-layer addressing of the received frame, set by devices;
          read by [DropBroadcasts] *)
}

and link_type = To_host | Broadcast | Multicast | To_other

type t
(** A mutable packet. *)

val default_headroom : int
(** 34 bytes — like Click, room for link-layer headers. *)

val create : ?headroom:int -> ?tailroom:int -> int -> t
(** [create len] allocates a zero-filled packet of [len] data bytes.
    Default headroom is {!default_headroom} bytes and default tailroom
    the same. *)

val of_bytes : ?headroom:int -> ?tailroom:int -> bytes -> t
(** Packet whose data is a copy of the given bytes. *)

val of_string : ?headroom:int -> ?tailroom:int -> string -> t

val grab : ?headroom:int -> bytes -> t
(** [grab data] takes ownership of [data] as the packet's buffer — no
    copy. The data window is [data] past the first [headroom] bytes
    (default 0). The caller must not use [data] afterwards. *)

val length : t -> int
val anno : t -> anno

val id : t -> int
(** Process-global serial number identifying this packet. Every packet
    that comes into existence — via {!create}, {!clone}, or
    {!Pool.alloc} (including buffer reuse) — gets a fresh id, so traces
    can follow one packet through the graph even across pool recycling. *)

val clone : t -> t
(** Deep copy: buffer and annotations are duplicated (the copy gets its
    own {!id}). Safe from any domain. *)

val headroom : t -> int
val tailroom : t -> int

(** {2 Window adjustment} *)

val push : t -> int -> unit
(** [push p n] prepends [n] uninitialized bytes (reallocating if headroom is
    short, again like Click). *)

val pull : t -> int -> unit
(** [pull p n] strips [n] bytes from the front. Raises [Invalid_argument]
    if [n > length p]. *)

val put : t -> int -> unit
(** [put p n] extends the data window by [n] zero bytes at the tail
    (reallocating if tailroom is short). *)

val take : t -> int -> unit
(** [take p n] trims [n] bytes from the tail. *)

(** {2 Data access} *)

val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit
val get_u16 : t -> int -> int
val set_u16 : t -> int -> int -> unit
val get_u32 : t -> int -> int
val set_u32 : t -> int -> int -> unit
val get_string : t -> pos:int -> len:int -> string
val set_string : t -> pos:int -> string -> unit

val to_string : t -> string
(** The live data window as a string. *)

val blit : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit
(** [blit ~src ~src_pos ~dst ~dst_pos ~len] copies [len] bytes between
    data windows with one memmove. Offsets are window-relative, like the
    accessors. *)

val data_offset : t -> int
(** Byte offset of the data window within the underlying buffer.
    Exposed for alignment tracking; there is deliberately no way to reach
    the raw buffer. *)

val checksum : t -> pos:int -> len:int -> int
(** Internet checksum over a region of the data window. *)

val ones_complement_sum : t -> pos:int -> len:int -> int
(** Folded 16-bit one's-complement sum over a region of the data window
    (the building block for incremental/pseudo-header checksums). *)

(** {2 Alignment}

    Alignment is the data window's offset within the machine word, the
    property tracked by the [click-align] tool. *)

val alignment : t -> int
(** [data_offset] modulo 4. *)

val realign : t -> modulus:int -> offset:int -> unit
(** Move the data (copying within or into a fresh buffer) so that
    [data_offset mod modulus = offset]. Used by the [Align] element. *)

(** {2 Recycling pool}

    A free list of dead packet descriptors, so the forwarding hot path
    neither allocates per packet nor leaves buffers to the GC. {!recycle}
    pushes the descriptor — buffer and all — onto a free-list array (no
    copy); {!alloc} pops one and re-zeros only its data window.
    Correctness relies on buffers never being shared: {!Packet.clone}
    deep-copies, so no live packet aliases a recycled one's storage, and
    {!recycle} marks packets so double-recycling is a safe no-op.

    Buffers come in one size class, {!buf_size} bytes: a fresh descriptor
    gets a zeroed buffer of that size even for a small request, so a
    recycled descriptor serves any later request up to that size without
    a new buffer (mixed frame sizes do not reallocate). A larger request
    gets a buffer of its own, counted in [st_heap_bufs]. {!recycle}
    takes back only packets whose buffer is at least the size class, so
    no request up to that size ever has to replace a free-list buffer.

    Pools are single-domain-owned: the descriptor free list is
    unsynchronized, so the sharded runtime gives every domain its own
    pool. A pool claims the first domain that operates on it and asserts
    (in debug builds) that every later {!alloc}/{!recycle} comes from
    that same domain — a recycled packet can never be resurrected
    concurrently by another domain. Use {!detach} to hand an idle pool
    over to a different domain. Packets themselves move between domains
    freely: one handed across an SPSC ring crosses by reference, buffer
    included, and is recycled into the consuming domain's pool, so
    cross-domain handoff copies no packet data. *)
module Pool : sig
  type packet = t
  type t

  type stats = {
    st_allocs : int;  (** fresh descriptor allocations (free list empty) *)
    st_reuses : int;  (** allocations served from the free list *)
    st_recycles : int;  (** packets accepted back into the pool *)
    st_rejected : int;
        (** recycles refused (pool full, double-recycle, or a buffer
            below the size class) *)
    st_free : int;  (** packets currently on the free list *)
    st_heap_bufs : int;
        (** buffers allocated beyond the size class (request larger than
            {!buf_size}) *)
  }

  val buf_size : int
  (** The buffer size class: 2048 bytes, enough for an MTU-sized frame
      plus default head/tailroom. *)

  val create : ?capacity:int -> unit -> t
  (** A pool holding at most [capacity] (default 1024) free packets. *)

  val alloc : t -> ?headroom:int -> ?tailroom:int -> int -> packet
  (** Like {!Packet.create}, but serves the packet from the pool: a
      recycled descriptor when one is available (re-zeroing its data
      window and resetting annotations), a fresh one otherwise. *)

  val recycle : t -> packet -> unit
  (** Return a dead packet to the pool. The caller must not touch the
      packet afterwards. Recycling the same packet twice, into a full
      pool, or with a buffer smaller than {!buf_size} is a no-op counted
      in [st_rejected]. *)

  val detach : t -> unit
  (** Release the pool's domain claim so the next domain that touches it
      becomes the owner — for handing a (typically empty) pool to the
      domain that will run it. The pool must be quiescent: detaching
      does not make concurrent use safe. *)

  val stats : t -> stats
end
