(** Cross-element match-action fusion over forwarding decision diagrams.

    The graph compiler ({!Oclick_compile}) builds each element's push
    body from its sem in isolation ({!Oclick_runtime.Region.body}, the
    builder the element's own [push] uses); a packet crossing a cascade of
    classifiers still pays one tree walk, one transfer, and one
    indirect call per hop. This pass collapses a whole push region into
    a single decision diagram, in the spirit of the NetKAT compiler's
    FDDs: every classifier tree met along the region is grafted into
    one hash-consed node set (offsets translated past Strips), paint
    writes and switches are constant-folded, and a terminal route
    lookup becomes a leaf action. The result is one compiled closure
    per region — one dispatch for the entire cascade — in two forms: a
    scalar body for one packet and a vector body for a batch. Both walk
    the diagram with {!Oclick_classifier.Tree.classify_packed}, the walk
    every classifier runs.

    The vector body classifies every packet of the vector through the
    diagram, runs the leaf actions' ops column by column over the
    sub-vectors that share them (one quarantine check and one transfer
    report per hop per sub-vector, one summed work charge, effects per
    packet under containment), and leaves through one bucket per exit:
    connections get their batched twin, a route leaf the route
    element's [push_batch] (its sem's vector form, so the batched
    lookup is stated once).

    Exact replay is a hard requirement, not best effort: the fused
    closures reproduce the interpreted run's per-hop transfer reports,
    work charges (with the per-path visited counts the interpreted
    walks would have counted), drop reasons, quarantine checks, and
    fault containment, so outcome totals and drop reasons match the
    interpreted run at the same batch size, and the scalar body's
    observation ledgers are byte-identical to it. *)

module Packet = Oclick_packet.Packet
module Element = Oclick_runtime.Element
module Hooks = Oclick_runtime.Hooks

type ctx = {
  fd_elements : Element.t array;  (** the instantiated graph, by index *)
  fd_conn : int -> int -> Packet.t -> unit;
      (** the per-element compiler's connection closure for leaving the
          region through element [i]'s output [port]; handles transfer
          reporting, quarantine, containment, and unconnected drops *)
  fd_conn_batch : int -> int -> Packet.t array -> unit;
      (** the batched twin of [fd_conn], for vectors leaving the region *)
  fd_hooks : Hooks.t;
      (** the installed hooks; no-op fields are specialized away *)
}

type region = {
  rg_entry : string;  (** name of the element whose push the body replaces *)
  rg_members : string list;  (** absorbed downstream elements, by name *)
  rg_nodes : int;  (** decision nodes after hash-consing *)
  rg_actions : int;  (** distinct fused leaf actions *)
  mutable rg_packets : int;
      (** packets that entered the region's body: bumped once per vector
          by its length, once per packet on the scalar path *)
}

type plan
(** One region's diagram and leaf actions, before compilation. *)

val plan_regions :
  Element.t array -> (int * int) option array array -> Hooks.t ->
  plan option array
(** [plan_regions elements out hooks] plans a diagram at every region
    root of the push graph wired by [out] ([out.(i).(port)] is the
    downstream (element, port)). An element roots a region only if some
    push edge into it is live — not absorbed by another diagram: it
    comes from an element without region semantics (a device, a Queue,
    ARP, …), through a wire mangler, out of a route lookup, or down an
    exit or side output of another region. Elements entered only from
    inside a region get [None] and keep their per-element body
    ({!Oclick_runtime.Region.body}).

    [None] also where fusion is not worthwhile or not sound: the entry
    exposes no usable {!Oclick_runtime.Region.sem}, the region never
    absorbs a second element (the element's own body is already the
    best form), the region decides nothing (no test node and no folded
    PaintSwitch: its one leaf action would run the same stages as the
    per-element bodies, through more closure layers), or the diagram
    outgrew the node/action budgets. A wire mangler on a source ends the
    region there (fault injection rewrites bytes mid-cascade,
    invalidating hoisted tests). [None] never loses correctness, only
    the cross-element optimization. *)

type fused = {
  fu_scalar : Packet.t -> unit;  (** the push body for one packet *)
  fu_vector : Packet.t array -> unit;
      (** the push body for a vector; the array is scratch, as for
          [push_batch] *)
  fu_region : region;
}

val compile : ctx -> plan -> fused
(** Compile a planned region into its scalar and vector bodies, both
    built from the same op and exit table. *)
