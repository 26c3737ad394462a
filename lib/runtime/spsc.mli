(** Bounded lock-free single-producer/single-consumer ring.

    The cross-domain handoff primitive of the sharded datapath: when the
    partitioner cuts the router graph at a Queue, the queue's push half
    runs on the producing domain and its pull half on the consuming
    domain, exchanging packets through one of these rings — a push/pull
    pair with no locks on the hot path.

    Slots hold elements directly (empty slots hold a caller-supplied
    dummy value), so pushing allocates nothing: a packet crosses the
    domain cut by reference, its buffer with it, with zero words added to
    either minor heap.

    Exactly one domain may call {!push} and exactly one domain may call
    {!pop}/{!pop_into} (they may be the same domain). The indices are
    [Atomic.t] cells allocated with padding between them, so the
    producer's and the consumer's counters do not share a cache line
    (OCaml gives no hard layout guarantee, but separately-allocated
    atomics with a dead spacer between them do not false-share in
    practice). *)

type 'a t

val create : dummy:'a -> int -> 'a t
(** [create ~dummy capacity] — a ring holding at most [capacity]
    elements (rounded up to a power of two internally; the stated
    capacity is still enforced exactly). [dummy] fills empty slots and
    is never returned. Raises [Invalid_argument] if [capacity <= 0]. *)

val capacity : 'a t -> int

val push : 'a t -> 'a -> bool
(** Producer side: enqueue, or return [false] if the ring is full. *)

val pop : 'a t -> 'a option
(** Consumer side: dequeue the oldest element, or [None] if empty. *)

val pop_into : 'a t -> 'a array -> int -> int
(** [pop_into t dst max] dequeues up to [min max (Array.length dst)]
    elements into [dst.(0..)] and returns how many were moved — the
    batch drain used by ring-backed Queue pulls: two atomic operations
    per batch rather than two per element, and no [option] boxing. *)

val length : 'a t -> int
(** Racy but bounded estimate of the occupancy — exact when read from
    either endpoint with the other side quiescent; monitoring only. *)

val is_empty : 'a t -> bool
(** [length t = 0]; same caveat as {!length}. *)
