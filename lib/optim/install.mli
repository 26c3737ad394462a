(** Installing a configuration's generated element classes.

    Optimized configurations arrive as archives whose members carry the
    code the tools generated ([FastClassifier@@...], [Devirtualize@@...]).
    Click compiles and dynamically links that code before parsing the
    configuration (paper §4, §5.2); here, {!install} reconstructs each
    generated class and registers it with the runtime:

    - [FastClassifier@@X] classes are rebuilt from their decision-tree
      dumps ([...tree] archive members, refused unless
      {!Oclick_classifier.Tree.of_string} accepts them) and charge their
      walks as specialized code;
    - [Devirtualize@@Orig@@N] classes wrap the original class's
      constructor with direct dispatch.

    Run this after parsing any configuration that may have passed through
    the optimizers (the [click-*] tools and [oclick-run] do). *)

val install : Oclick_graph.Router.t -> (unit, string) result
(** Registers every generated class the configuration instantiates.
    Classes already registered are left alone. *)
