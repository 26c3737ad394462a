(** Classification decision trees.

    This is the structure Click's [Classifier], [IPFilter], and
    [IPClassifier] compile their textual specifications into (paper §3, §4,
    Fig. 3a): a DAG of nodes, each comparing a masked 32-bit big-endian
    word of packet data against a constant and branching. Leaves name an
    output port or drop the packet.

    Words are addressed by byte offset into the packet data; reads past the
    end of the packet see zero bytes, so short packets take whatever branch
    the zero data selects — a deterministic, documented simplification of
    Click's length pre-check. *)

type target = Node of int | Leaf of int
(** [Leaf k]: emit on output [k]; [Leaf drop_output] discards. *)

val drop : int
(** The pseudo-output for dropped packets, [-1]. *)

type node = { offset : int; mask : int; value : int; yes : target; no : target }

type t = {
  nodes : node array;  (** node 0 is the root (when the array is non-empty) *)
  root : target;  (** entry point; a bare [Leaf] when the tree is trivial *)
  noutputs : int;
}

val leaf_tree : int -> int -> t
(** [leaf_tree output noutputs]: classify everything to [output]. *)

val safe_length : t -> int
(** Largest [offset + 4] over all nodes: packets at least this long are
    classified without implicit zero padding. *)

val node_count : t -> int
val depth : t -> int
(** Longest root-to-leaf path (0 for a trivial tree). *)

(** {2 Classification}

    {!classify_packed} is the one walk every datapath runs: the
    interpreted classifiers, the FastClassifier classes, the per-element
    bodies the graph compiler derives from them, and both bodies of a
    fused decision diagram. The other functions decode its result. *)

val packet_read : Oclick_packet.Packet.t -> int -> int
(** [packet_read p off]: the big-endian 32-bit word at byte offset
    [off], zero-padded past the end of the packet. *)

val classify_packed : t -> Oclick_packet.Packet.t -> int
(** Walk the tree. The output port (or {!drop}) and the number of nodes
    visited come packed into one immediate int — decode with
    {!packed_output}/{!packed_visited}. Performs no allocation, for
    per-packet datapaths. The visited count saturates at 2{^20}-1. *)

val packed_output : int -> int
val packed_visited : int -> int

val packed_visited_bits : int
(** [v asr packed_visited_bits] is the leaf slot of a packed result:
    [packed_output v + 1], so 0 for {!drop} and [k + 1] for output [k].
    It indexes a per-leaf continuation array directly. *)

val classify : t -> Oclick_packet.Packet.t -> int
(** The output port of {!classify_packed}. *)

val classify_count : t -> Oclick_packet.Packet.t -> int * int
(** The output port and the visited count of {!classify_packed}. *)

(** {2 The dump format}

    [click-fastclassifier] extracts decision trees by running Click on a
    harness configuration that prints each classifier's tree in
    human-readable form, then parsing that output (paper §4). *)

val to_string : t -> string
(** One line per node: ["N: off M mask V value yes Y no Z"]; targets are
    ["[k]"] for leaves ([[drop]] for the drop leaf) and plain integers for
    nodes. *)

val of_string : string -> (t, string) result
(** Parses {!to_string} output. Rejects a dump whose node targets name
    no node of the dump, whose offsets are negative, or whose nodes do
    not form a DAG: the walk trusts the tree it is given. *)

val equal : t -> t -> bool
(** Structural equality of reachable behaviour: node arrays and roots are
    compared after renumbering both trees in preorder. *)

val renumber : t -> t
(** Garbage-collects unreachable nodes and renumbers the rest in preorder
    from the root. *)
