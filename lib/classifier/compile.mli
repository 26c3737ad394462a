(** Decision trees compiled to closures.

    The run-time analogue of [click-fastclassifier]'s generated C++
    (paper §4, Fig. 3b): instead of walking a tree laid out in memory,
    classification runs nested closures with the offsets, masks, and
    constants baked in. Shared subtrees share closures, so code size
    matches the DAG size.

    No datapath runs this form: every element, compiled body and fused
    diagram classifies with {!Tree.classify_packed}, which perfbench's
    layer probe measures as fast. This form stays as what that probe
    ([classifier.compiled_ns_per_pkt]) times against the walk, and for
    the firewall example and the classifier microbenchmarks. *)

val compile : Tree.t -> read:(int -> int) -> int
(** [compile t] specializes [t] once; the returned function classifies with
    no per-node interpretation overhead. Partially apply it:
    [let fast = compile t in ... fast ~read]. *)

val compile_packet : Tree.t -> Oclick_packet.Packet.t -> int
(** [compile_packet t] is [compile t] pre-composed with
    {!Tree.packet_read}, which zero-pads short packets like
    {!Tree.classify}. *)
