(** Declarative classification semantics: the one description of an
    element's push path.

    An element may expose, through {!Element.base.region_sem}, a
    description of what its push path {e means} in match-action terms.
    The element's own [push] and [push_batch] ({!Element.base}) and the
    graph compiler's body for it ({!Oclick_compile}) are all built from
    it by {!body}. Under [~fuse:true] the FDD pass ([lib/fdd]) also
    walks a push region over these descriptions and collapses the whole
    cascade — classifier trees, paint writes and switches, header
    guards, a route lookup — into one forwarding decision diagram
    evaluated as a single compiled closure.

    So a sem has the semantics of its element's [push] by construction.
    The FDD's cross-element replay still relies on the declarative
    fields ([cl_tree], [gd_shift], [gd_barrier], the [Set_paint]
    colour) describing what the closures do, and on every closure
    accounting its charges, drop reasons and annotation writes itself:
    the fused path replays the interpreted run's outcome totals, per-hop
    obs ledgers and drop reasons byte for byte. Every
    {!Element.simple_action} has a sem by default: a barrier {!Guard}
    that runs its one [inplace] body. Elements whose push path cannot be
    described this way keep the default ([None]), write their own
    [push], and end the region. *)

module Tree = Oclick_classifier.Tree
module Packet = Oclick_packet.Packet

type sem =
  | Classify of {
      cl_tree : Tree.t;  (** the optimized decision tree every body walks *)
      cl_charge : int -> unit;
          (** charge classification work for [visited] nodes *)
      cl_invalid : Packet.t -> unit;
          (** sink for packets classified to a leaf with no output (the
              element's drop accounting) *)
    }
      (** The element routes by a pure decision tree over packet bytes:
          leaf [k] in [0..noutputs) continues on output [k]; any other
          leaf goes to [cl_invalid]. *)
  | Set_paint of int
      (** Writes the paint annotation, then continues on output 0. *)
  | Paint_switch of { ps_invalid : Packet.t -> unit }
      (** Routes by the paint annotation: paint [c] in [0..noutputs)
          continues on output [c], anything else goes to [ps_invalid].
          Folded only when the paint value is statically known on the
          path (a dominating {!Set_paint}); otherwise the region ends
          before this element. *)
  | Guard of {
      gd_shift : int;
          (** bytes pulled from the packet front when the guard passes
              (e.g. Strip); downstream tree offsets are translated by
              this amount *)
      gd_barrier : bool;
          (** the element may rewrite packet bytes or lengths in ways
              offset translation cannot express (e.g. CheckIPHeader's
              padding trim): no further tree tests may be hoisted above
              it, though non-test actions still fuse *)
      gd_run : Packet.t -> bool;
          (** the element's push effect; [false] means the packet was
              consumed or diverted (dropped with the element's own
              reason, or sent down a side output through the element's
              [output]) and the body stops *)
    }
      (** A pass/divert stage that continues on output 0 when [gd_run]
          returns true. *)
  | Mutate of (Packet.t -> unit)
      (** An unconditional effect (annotation writes, clone-and-tee side
          outputs) that always continues on output 0. *)
  | Route of {
      rt_make : lean_work:bool -> Packet.t -> int;
          (** [rt_make ~lean_work] builds the lookup closure once per
              body or region; per packet it performs the lookup —
              charging work unless [lean_work], rewriting the gateway
              annotation, accounting misses and unconnected-port drops
              itself — and returns the output port, or {!consumed}. *)
      rt_make_batch : lean_work:bool -> Packet.t array -> int array -> unit;
          (** The vector form: [rt_make_batch ~lean_work batch ports]
              does what [rt_make] does to every packet of [batch],
              writing each one's result to [ports] at the same index,
              and charges the vector's summed work in one report. *)
    }
      (** A route lookup as a leaf action. *)

val consumed : int
(** The port of a packet a lookup or vector form already consumed
    (dropped, or faulted and accounted). Negative. *)

val stage : sem -> Packet.t -> bool
(** What a [Set_paint], [Guard] or [Mutate] does to a packet: [true] to
    continue on output 0. Raises [Invalid_argument] for the others. *)

val body :
  sem ->
  noutputs:int ->
  lean_work:bool ->
  out:(int -> Packet.t -> unit) ->
  Packet.t ->
  unit
(** [body sem ~noutputs ~lean_work ~out] is the push body of one element
    with [noutputs] outputs, built from its sem alone; [out port]
    continues a packet on output [port] (the port's push closure,
    {!Element.push_port}), and is applied to every port once, here. A
    [Classify] body runs one {!Oclick_classifier.Tree.classify_packed}
    walk, charges [cl_charge] unless [lean_work], and continues through
    a per-leaf array of continuations; a [Route] body calls
    [rt_make ~lean_work] once and dispatches on the port it returns; a
    [Paint_switch] body dispatches on the paint annotation; the stages
    run {!stage} and continue on output 0 if it passes. *)
