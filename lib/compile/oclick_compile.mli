(** The whole-graph datapath compiler.

    The paper's biggest wins — click-devirtualize (§5) and
    click-fastclassifier (§4) — remove virtual-dispatch and
    generic-classifier overhead at the source level; this pass finishes
    the job at execution time. Given an instantiated {!Driver.t}, it
    compiles the push paths into direct-call closures:

    - {b ports with compiled callees} — every push connection's port is
      built by {!Oclick_runtime.Element.push_port}, the builder the
      interpreter uses, with the destination's compiled body as callee
      in place of the virtual [push] (and the region's vector body for
      batches). Under the no-op {!Hooks.null} it calls no hook at all.
    - {b bodies from the sem} — every element with a
      {!Oclick_runtime.Region.sem} (every [simple_action], the
      classifiers, the route lookups, PaintSwitch, the combos) gets the
      compiled body its sem describes ({!Oclick_runtime.Region.body},
      the builder the element's own [push] uses), chained to its
      compiled neighbours, so a run of such elements collapses into
      one nested closure: a packet crosses CheckIPHeader → DecIPTTL → …
      in straight-line calls. A classifier's body runs one
      {!Oclick_classifier.Tree.classify_packed} walk and jumps through a
      per-leaf continuation array; a route lookup calls its table (the
      DIR-24-8 trie) directly; a [simple_action] runs its one [inplace]
      body.

    Semantics are bit-identical to the interpreted path: the one port
    builder states mangle, quarantine checks, fault containment, drop
    attribution and the per-hop hook events for both, and bodies come
    from the same sem, so outcome totals, drop reasons, conservation
    balances and obs ledgers are equal by construction. Elements
    without a sem (devices, Queue, Discard, Counter, ARP, Tee,
    ICMPError, …) keep their virtual [push] behind the port:
    compilation degrades per element, never per graph.

    The only configurations conservatively rejected are direct
    self-loops (an element pushing straight into itself), where fusion
    cannot bottom out. Cyclic paths through several elements (the IP
    router's ICMPError loops) compile fine: the back edge falls back to
    dynamic dispatch. *)

type stats = {
  st_connections : int;  (** push connections devirtualized *)
  st_fused : int;  (** elements contributing compiled per-packet bodies *)
  st_fallbacks : int;
      (** connections delivering via dynamic dispatch: those into an
          element without a sem (and back edges into a body still being
          built) *)
  st_regions : Oclick_fdd.region list;
      (** cross-element regions fused into single decision diagrams
          (empty unless compiled with [~fuse:true]) *)
}

val install : ?fuse:bool -> Oclick_runtime.Driver.t -> (stats, string) result
(** Compile the driver's push paths in place. The compiled bodies
    capture each element's installed hooks and fault injector — its
    ports' transfer reports and its own work charges alike, so per-shard
    hooks set on the elements are honoured; callers must not change them
    afterwards (the driver never does).

    With [~fuse:true], the cross-element FDD pass ({!Oclick_fdd}) plans
    a diagram at every region root: cascades of classifiers, paint
    writes/switches, header guards and route lookups collapse into one
    decision-diagram closure per region, with the per-element bodies as
    the universal fallback. The batched connection into a region root
    calls the region's vector body, so batches run through the diagram
    too. Observable behaviour is unchanged either way. *)

val last_stats : unit -> stats option
(** Stats of the most recent {!install} in this process, or [None] if it
    never ran. For tools that compile through [Driver.instantiate] —
    which discards the stats — and want to report fused regions
    afterwards (oclick-report's fused pass). *)

val register : unit -> unit
(** Make [Driver.instantiate ~compile:true] work by registering
    {!install} with {!Oclick_runtime.Driver.register_compiler}. *)
