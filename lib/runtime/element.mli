(** The element framework.

    Element classes are OCaml classes — the direct analogue of Click's C++
    element classes, including real dynamic dispatch on [push]/[pull].
    A class provides its external specification (port counts, processing
    code, flow code: paper §5.3) as methods; the registry extracts it for
    the optimizers.

    Packet transfers go through {!base.output} and {!base.input_pull},
    which report each transfer to the installed {!Hooks.t} — carrying the
    source's {e code class} (shared call sites share branch-predictor
    state, paper §3) and whether the element was specialized by
    [click-devirtualize] (direct calls). *)

type init_ctx = {
  ic_graph : Oclick_graph.Router.t;
  ic_element : int -> t;  (** element by graph index *)
  ic_find : string -> t option;  (** element by name *)
  ic_device : string -> Netdevice.t option;
  ic_index : int;  (** the index of the element being initialized *)
}

(* The full element interface (the object type every element is coerced
   to). *)
and t = <
  name : string;
  class_name : string;
  port_count : string;
  processing : string;
  flow_code : string;
  code_class : string;
  set_code_class : string -> unit;
  direct_dispatch : bool;
  set_direct_dispatch : bool -> unit;
  configure : string -> (unit, string) result;
  initialize : init_ctx -> (unit, string) result;
  index : int;
  set_index : int -> unit;
  set_hooks : Hooks.t -> unit;
  set_nports : inputs:int -> outputs:int -> unit;
  ninputs : int;
  noutputs : int;
  connect_output : int -> t -> int -> unit;
  connect_input : int -> t -> int -> unit;
  output_record : int -> Hooks.transfer;
  push : int -> Oclick_packet.Packet.t -> unit;
  pull : int -> Oclick_packet.Packet.t option;
  push_batch : int -> Oclick_packet.Packet.t array -> unit;
  pull_batch : int -> Oclick_packet.Packet.t array -> int;
  output : int -> Oclick_packet.Packet.t -> unit;
  input_pull : int -> Oclick_packet.Packet.t option;
  batch_size : int;
  set_batch_size : int -> unit;
  set_pool : Oclick_packet.Packet.Pool.t option -> unit;
  region_sem : Region.sem option;
  set_fused :
    out:(Oclick_packet.Packet.t -> unit) array ->
    out_batch:(Oclick_packet.Packet.t array -> unit) array ->
    unit;
  degrade_cells : bool ref * int ref;
  mangle_fn : (Oclick_packet.Packet.t -> unit) option;
  wants_task : bool;
  run_task : bool;
  stats : (string * int) list;
  read_handler : string -> string option;
  write_handler : string -> string -> (unit, string) result;
  is_quarantined : bool;
  fault_count : int;
  set_quarantine_threshold : int -> unit;
  set_mangle : (Oclick_packet.Packet.t -> unit) option -> unit;
  set_clock : (unit -> int) -> unit;
  record_fault : string -> unit;
  drop : reason:string -> Oclick_packet.Packet.t -> unit;
  note_ok : unit >

(** Verdict of a {!simple_action} element's body: [V_keep] continues on
    output 0, [V_drop] means the body consumed the packet (dropped it
    with its own reason, or sent it down a side output). Both
    constructors are immediates, so keep/drop travels without boxing a
    [Packet.t option] per packet. *)
type verdict = V_keep | V_drop

class virtual base : string -> object
  val lean_work : bool
  (** Whether the installed work hook is the null one, cached by
      {!set_hooks}. Every charge site tests this field before
      {!charge}, so the [Hooks.work] constructor is not boxed, and
      [class_name] not sent, just to feed a no-op hook. *)

  val mutable clock : unit -> int
  (** Nanosecond time source for aging element state
      ({!Aged_table}); installed driver-wide via {!set_clock}. The
      default never advances ([fun () -> 0]), so state never ages
      unless a clock is provided. *)

  method name : string
  method virtual class_name : string

  method code_class : string
  (** The class whose {e code} performs this element's packet transfers;
      equals {!class_name} unless devirtualization installed a specialized
      class. Transfer call sites are keyed by this. *)

  method set_code_class : string -> unit
  method direct_dispatch : bool
  method set_direct_dispatch : bool -> unit

  (** {2 Specification (overridden per class)} *)

  method port_count : string
  (** Default ["1/1"]. *)

  method processing : string
  (** Default ["a/a"]. *)

  method flow_code : string
  (** Default ["x/x"]. *)

  (** {2 Lifecycle} *)

  method configure : string -> (unit, string) result
  (** Parse the configuration string; default accepts only [""] . *)

  method initialize : init_ctx -> (unit, string) result

  (** {2 Plumbing (managed by the driver)} *)

  method index : int
  method set_index : int -> unit
  method set_hooks : Hooks.t -> unit
  method set_nports : inputs:int -> outputs:int -> unit
  method ninputs : int
  method noutputs : int
  method connect_output : int -> t -> int -> unit
  method connect_input : int -> t -> int -> unit

  method output_record : int -> Hooks.transfer
  (** The transfer report of output [port]'s connection, built when it
      was wired; every datapath reports with it. Raises
      [Invalid_argument] for an unwired port. *)

  (** {2 Packet handling}

      An element with a {!region_sem} states its push semantics there
      only: [push] and [push_batch] are derived from it. Other elements
      override [push]. *)

  method push : int -> Oclick_packet.Packet.t -> unit
  (** With a sem: {!Region.body} of it with [out k = output k], so
      dispatch stays virtual and {!output} reports each transfer. Built
      on first use, rebuilt after {!set_hooks}, {!set_nports} or
      {!sem_changed}. Without one: counts the packet as dropped. *)

  method pull : int -> Oclick_packet.Packet.t option
  (** Default: [None]. *)

  (** {2 Batched transfer path}

      The hot-path alternative to per-packet [push]/[pull]: a whole
      array of packets crosses a hookup in one dynamic dispatch and one
      {!Hooks.t.on_transfer_batch} report. Semantics are preserved: an
      element with a sem runs its one-element vector form, every other
      element loops its scalar methods under the same fault containment
      unless it overrides them with loops that hoist config lookups,
      hook reporting, and dispatch out of the per-packet body.

      Contract: [push_batch] implementations contain their own
      per-packet faults (use [guard], or pattern-match exceptions as the
      default does) — drop reasons match the scalar path (["element
      fault"], ["quarantined element"]), so per-reason drop totals are
      identical in both modes. The batch array is scratch owned by the
      callee once handed over: callers must not rely on its contents
      after [push_batch]/[output_batch] returns. *)

  method push_batch : int -> Oclick_packet.Packet.t array -> unit
  (** Process a whole batch arriving on a port. With a sem, its
      one-element vector form, built like {!push}: [Classify],
      [Paint_switch] and [Route] pick an output per packet (or consume
      it), make one summed work charge and forward each run of
      consecutive packets for one output as one transfer; the stages run
      per packet and forward the survivors in one {!output_batch}, after
      any side outputs (DESIGN §9). Both contain faults per packet.
      Without a sem: loops {!push} under the same containment. *)

  method pull_batch : int -> Oclick_packet.Packet.t array -> int
  (** Fill-style batched pull: write up to [Array.length dst] packets
      into the array from the front and return how many. Default: loops
      the scalar {!pull}, stopping at the first refusal. *)

  method batch_size : int
  (** Preferred batch size for this element's task loops; 1 = scalar. *)

  method set_batch_size : int -> unit
  (** Set by the driver ([clamped to >= 1]). *)

  method set_pool : Oclick_packet.Packet.Pool.t option -> unit
  (** Install a recycling packet pool; source elements then allocate
      through it (see {!Oclick_packet.Packet.Pool}). *)

  (** {2 Graph compilation}

      The runtime graph compiler ({!Oclick_compile}) replaces interpreted
      dispatch with direct-call closures. An element with a {!region_sem}
      gets the body its sem describes; every other element keeps dynamic
      [push] dispatch behind a compiled connection — compilation never
      changes semantics, only the call path. *)

  method region_sem : Region.sem option
  (** The element's push semantics in match-action terms (see {!Region}):
      {!push}, {!push_batch} and the compiler's body are derived from
      it, and the FDD pass fuses it across elements. Default [None]: the
      compiler calls [push], and the element ends any region reaching
      it. *)

  method private sem_changed : unit
  (** Drop the bodies built from the sem; [configure] calls it when the
      sem snapshots configured state (a Classifier's tree). *)

  method set_fused :
    out:(Oclick_packet.Packet.t -> unit) array ->
    out_batch:(Oclick_packet.Packet.t array -> unit) array ->
    unit
  (** Install compiled connection closures, one per output port;
      {!output} and {!output_batch} then jump straight into them. Called
      only by the graph compiler. *)

  method degrade_cells : bool ref * int ref
  (** The quarantine flag and consecutive-fault counter as raw cells, so
      compiled connections can check and clear them without per-packet
      method dispatch. *)

  method mangle_fn : (Oclick_packet.Packet.t -> unit) option
  (** The installed in-flight fault injector (see {!set_mangle}). *)

  method wants_task : bool
  (** Whether the scheduler should call {!run_task}; default [false]. *)

  method run_task : bool
  (** One scheduler quantum; returns whether any work was done. *)

  method stats : (string * int) list
  (** Named counters for tests and reports; default []. *)

  method read_handler : string -> string option
  (** Click-style read handlers. The default exposes every {!stats}
      counter by name, plus ["name"] and ["class"]. *)

  method write_handler : string -> string -> (unit, string) result
  (** Click-style write handlers for run-time control (e.g. a Queue's
      ["capacity"], a source's ["active"]). Default: no handlers. *)

  (** {2 For subclasses} *)

  method output : int -> Oclick_packet.Packet.t -> unit
  (** Transfer a packet downstream (a push "virtual call"). Unconnected
      ports drop and report. *)

  method input_pull : int -> Oclick_packet.Packet.t option
  (** Request a packet from upstream (a pull "virtual call"). *)

  method output_batch : int -> Oclick_packet.Packet.t array -> unit
  (** Transfer a whole batch downstream: one quarantine check, one
      {!Hooks.t.on_transfer_batch} report, one [push_batch] dispatch.
      Per-packet mangle (fault injection) still applies. A batch of one
      falls back to the scalar {!output}. *)

  method input_pull_batch : int -> Oclick_packet.Packet.t array -> int
  (** Batched upstream request: fills the array from the front via the
      peer's [pull_batch], reports one batched transfer, returns the
      count. *)

  method private guard : (Oclick_packet.Packet.t -> unit) -> Oclick_packet.Packet.t -> unit
  (** [guard f p] runs [f p] under scalar-equivalent per-packet fault
      containment — the building block for [push_batch] overrides. *)

  method private sub_batch : Oclick_packet.Packet.t array -> int -> Oclick_packet.Packet.t array
  (** [sub_batch batch m] is the first [m] packets of [batch], reusing
      the array itself when [m = Array.length batch]. *)

  method private scratch : int -> Oclick_packet.Packet.t array
  (** A reusable per-element batch array of at least [n] slots, for task
      loops (contents are garbage; fill before use). *)

  method private alloc : ?headroom:int -> int -> Oclick_packet.Packet.t
  (** Pool-aware packet allocation for source elements. *)

  method private recycle : Oclick_packet.Packet.t -> unit
  (** Return a dead packet to the installed pool (no-op without one). *)

  method charge : Hooks.work -> unit
  (** Report element work to the installed hooks; guard each call with
      [lean_work]. *)

  method drop : reason:string -> Oclick_packet.Packet.t -> unit

  method spawn : Oclick_packet.Packet.t -> unit
  (** Report a packet born inside this element (clone, ICMP error, IP
      fragment, ARP query) so conservation accounting can balance. *)

  (** {2 Degradation layer}

      Packet transfers through {!output}/{!input_pull} contain exceptions
      escaping the peer element: the fault is reported via
      {!Hooks.on_fault}, the packet becomes an accounted drop
      (["element fault"]), and an element failing
      {!set_quarantine_threshold} consecutive times is quarantined — the
      runtime mirror of [click-undead]: transfers into it become
      accounted drops (["quarantined element"]) and its task is no
      longer scheduled. [Out_of_memory], [Stack_overflow] and [Sys.Break]
      are never contained. *)

  method is_quarantined : bool
  method fault_count : int
  (** Exceptions contained so far on behalf of this element. *)

  method set_quarantine_threshold : int -> unit
  (** Consecutive faults before quarantine; [0] disables. Default 8. *)

  method set_mangle : (Oclick_packet.Packet.t -> unit) option -> unit
  (** Install an in-flight corruption function applied to every packet
      this element transfers downstream (fault injection). *)

  method set_clock : (unit -> int) -> unit
  (** Install the nanosecond time source stateful elements age by —
      the testbed's simulated clock, or the wall clock in live runs. *)

  method record_fault : string -> unit
  method note_ok : unit
end

(** Click's [simple_action] sugar: one agnostic input, one agnostic
    output, one per-packet body. [pull] and a default {!region_sem} are
    derived from {!inplace}, and [push] and [push_batch] from the sem,
    so the element genuinely works in either context and states its
    semantics once.
    (The shared dispatch site this creates in real Click is what
    confuses the branch predictor — paper §3 footnote; the cycle model
    accounts for it per class.) *)
class virtual simple_action : string -> object
  inherit base

  method virtual private inplace : Oclick_packet.Packet.t -> verdict
  (** The element's body: mutate the packet in place (growing it with
      [Packet.push] keeps the same packet) and answer {!V_keep} to
      continue on output 0, or {!V_drop} once the body has dropped it or
      sent it down a side output through {!output}. *)

  method region_sem : Region.sem option
  (** Default: [Guard { gd_shift = 0; gd_barrier = true; gd_run }] with
      [gd_run p = (inplace p = V_keep)]. The barrier is the safe default,
      because a body may rewrite bytes or lengths; an element whose sem
      can say more (a shift, no barrier, a paint the fusion pass folds)
      overrides it. *)
end

val configure_error : string -> ('a, string) result
(** Shorthand for [Error msg] in configure methods. *)

val fatal : exn -> bool
(** Exceptions the degradation layer must never contain:
    [Out_of_memory], [Stack_overflow], [Sys.Break]. *)

val force_scratch_placeholder : unit -> unit
(** Force the lazy fill value shared by every element's scratch batch
    array. The multi-domain runner calls this before spawning domains:
    [Lazy.force] is not safe to race, and leaving the value lazy (rather
    than making it eager) keeps packet-id sequences — and the golden
    traces derived from them — unchanged for single-domain runs. *)
