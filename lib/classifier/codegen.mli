(** Source-code generation for [click-fastclassifier].

    Click's tool writes C++ element classes into the configuration archive
    and lets the router compile and dynamically link them (paper §4). This
    module plays the same role, emitting OCaml element-class source that
    mirrors Fig. 3b into the archive. The in-process registry hook stands
    in for Click's dynamic linker (see DESIGN.md §5): it installs a
    FastClassifier class that walks the archived tree with
    {!Tree.classify_packed} and charges the testbed's specialized-code
    cost. *)

val ocaml_source : class_name:string -> original_config:string -> Tree.t -> string
(** A complete, human-readable OCaml module implementing the specialized
    classifier: one [step_N] function per decision-tree node, constants
    inlined. *)
