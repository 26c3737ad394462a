(* The generic classification elements. Each compiles its configuration
   into a decision tree at configure time and walks that tree per packet
   with Tree.classify_packed (paper Fig. 3a). Under the graph compiler
   the element's body comes from its Classify sem, which runs the same
   walk.

   [register_fast_classifier] installs a generated class whose instances
   walk the tree click-fastclassifier optimized and archived, charged as
   the paper's specialized code: the runtime half of
   click-fastclassifier, standing in for Click's dynamic linking of
   generated C++. *)

open Prelude
module Tree = Oclick_classifier.Tree
module Optimize = Oclick_classifier.Optimize

class virtual tree_classifier name =
  object (self)
    inherit E.base name
    val mutable tree = Tree.leaf_tree Tree.drop 1
    val mutable dropped = 0
    val mutable port_scratch : int array = [||]
    method virtual private build_tree : string -> (Tree.t, string) result

    (* The work kind a walk of [visited] nodes is charged as. *)
    method private work visited = Hooks.W_classify_interp visited
    method! port_count = "1/-"
    method! processing = "h/h"
    method tree = tree

    method! configure config =
      match self#build_tree config with
      | Error e -> Error e
      | Ok t ->
          tree <- Optimize.optimize t;
          Ok ()

    method! push _ p =
      let packed = Tree.classify_packed tree p in
      let out = Tree.packed_output packed in
      if not self#lean_work then
        self#charge (self#work (Tree.packed_visited packed));
      if out >= 0 && out < self#noutputs then self#output out p
      else begin
        dropped <- dropped + 1;
        self#drop ~reason:"classified to no output" p
      end

    method! push_batch _ batch =
      (* Classify the whole batch first (one summed work charge — the
         cost model is linear in nodes visited), then emit contiguous
         same-output runs as single transfers. *)
      let n = Array.length batch in
      if Array.length port_scratch < n then port_scratch <- Array.make n 0;
      let ports = port_scratch in
      let visited_total = ref 0 in
      for i = 0 to n - 1 do
        if self#is_quarantined then begin
          self#drop ~reason:"quarantined element" batch.(i);
          ports.(i) <- consumed
        end
        else
          match Tree.classify_packed tree batch.(i) with
          | packed ->
              visited_total := !visited_total + Tree.packed_visited packed;
              self#note_ok;
              ports.(i) <- Tree.packed_output packed
          | exception e when not (E.fatal e) ->
              self#record_fault (Printexc.to_string e);
              self#drop ~reason:"element fault" batch.(i);
              ports.(i) <- consumed
      done;
      if !visited_total > 0 then self#charge (self#work !visited_total);
      emit_runs self ports batch n ~on_invalid:(fun p ->
          dropped <- dropped + 1;
          self#drop ~reason:"classified to no output" p)

    method! region_sem =
      Some
        (Region.Classify
           {
             cl_tree = tree;
             cl_charge = (fun v -> self#charge (self#work v));
             cl_invalid =
               (fun p ->
                 dropped <- dropped + 1;
                 self#drop ~reason:"classified to no output" p);
           })

    method! stats =
      [
        ("nodes", Tree.node_count tree);
        ("depth", Tree.depth tree);
        ("dropped", dropped);
      ]
  end

class classifier name =
  object
    inherit tree_classifier name
    method class_name = "Classifier"
    method private build_tree config =
      Oclick_classifier.Pattern.tree_of_config config
  end

class ip_classifier name =
  object
    inherit tree_classifier name
    method class_name = "IPClassifier"
    method private build_tree config =
      Oclick_classifier.Filter.ipclassifier_tree config
  end

class ip_filter name =
  object
    inherit tree_classifier name
    method class_name = "IPFilter"
    method private build_tree config =
      Oclick_classifier.Filter.ipfilter_tree config
  end

(* A FastClassifier instance: the tree is already built and optimized by
   the tool, and its walks are charged as specialized code. *)
class fast_classifier cls name (t : Tree.t) =
  object
    inherit tree_classifier name
    val! mutable tree = t
    method class_name = cls
    method private build_tree _ = Ok t
    method! configure _ = Ok () (* the tree is baked in *)
    method! private work visited = Hooks.W_classify_compiled visited
    method! stats = [ ("nodes", Tree.node_count t); ("dropped", dropped) ]
  end

let register_fast_classifier ~class_name (t : Tree.t) =
  def ~replace:true ~ports:"1/-" ~processing:"h/h" class_name (fun n ->
      (new fast_classifier class_name n t :> E.t))

let register () =
  def "Classifier" ~ports:"1/-" ~processing:"h/h" (fun n ->
      (new classifier n :> E.t));
  def "IPClassifier" ~ports:"1/-" ~processing:"h/h" (fun n ->
      (new ip_classifier n :> E.t));
  def "IPFilter" ~ports:"1/-" ~processing:"h/h" (fun n ->
      (new ip_filter n :> E.t))
