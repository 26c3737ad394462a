(** Declarative classification semantics: the one compiled description
    of an element.

    An element may expose, through {!Element.base.region_sem}, a
    description of what its push path {e means} in match-action terms.
    The graph compiler ({!Oclick_compile}) derives the element's compiled
    body from it ([Oclick_fdd.body]) and never asks such an element to
    [fuse]. Under [~fuse:true] the FDD pass ([lib/fdd]) also walks a push
    region over these descriptions and collapses the whole cascade —
    classifier trees, paint writes and switches, header guards, a route
    lookup — into one forwarding decision diagram evaluated as a single
    compiled closure.

    Every closure carried here must have exactly the semantics of the
    element's [push] (charges, drop reasons, annotation writes), because
    the compiled and fused paths are required to replay the interpreted
    run's observable behaviour — outcome totals, per-hop obs ledgers,
    drop reasons — byte for byte. Elements whose push path cannot be
    described this way simply keep the default ([None]) and end the
    region; compilation never changes semantics, only the evaluation
    path. *)

module Tree = Oclick_classifier.Tree
module Packet = Oclick_packet.Packet

type sem =
  | Classify of {
      cl_tree : Tree.t;  (** the optimized decision tree the push walks *)
      cl_charge : int -> unit;
          (** charge classification work for [visited] nodes — same hook
              and work constructor the interpreted push uses *)
      cl_invalid : Packet.t -> unit;
          (** sink for packets classified to a leaf with no output
              (drop accounting identical to the interpreted push) *)
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
              reason, or sent down a side output through the compiled
              connections) and the fused action stops *)
    }
      (** A pass/divert stage that continues on output 0 when [gd_run]
          returns true. *)
  | Mutate of (Packet.t -> unit)
      (** An unconditional effect (annotation writes, clone-and-tee side
          outputs) that always continues on output 0. *)
  | Route of { rt_make : lean_work:bool -> Packet.t -> int }
      (** A route lookup as a leaf action: [rt_make ~lean_work] builds
          the lookup closure once per compiled body or region; per
          packet it performs the lookup — charging work unless
          [lean_work], rewriting the gateway annotation, accounting
          misses and unconnected-port drops itself — and returns the
          output port, or [-1] when it consumed the packet. *)
