(** The router driver: instantiates a configuration graph into live
    elements and schedules their tasks.

    This is the analogue of Click's kernel driver: it checks the
    configuration, resolves push/pull processing, constructs elements
    through the registry, wires their ports, and runs task elements
    (device polling, sources) round-robin — Click's "constantly-active
    kernel thread" (paper §3). *)

type t

val instantiate :
  ?hooks:Hooks.t ->
  ?devices:Netdevice.t list ->
  ?mangle:(Oclick_packet.Packet.t -> unit) ->
  ?quarantine:int ->
  ?batch:int ->
  ?pool:Oclick_packet.Packet.Pool.t ->
  ?compile:bool ->
  ?fuse:bool ->
  ?clock:(unit -> int) ->
  Oclick_graph.Router.t ->
  (t, string) result
(** Checks the graph against the registry's specifications, builds and
    configures every element, wires push outputs and pull inputs, and
    initializes the router. All configuration errors are reported
    together in the error string.

    [mangle] installs an in-flight fault injector applied to every packet
    transfer (see {!Element.base.set_mangle}); [quarantine] overrides the
    consecutive-fault quarantine threshold on every element.

    [batch] (default 1 = scalar) sets every element's preferred batch
    size: device and source task loops then move packets through the
    graph in arrays via the batched transfer path, which is
    semantics-preserving (identical per-reason drop totals and
    conservation balance). [pool] installs a recycling packet pool:
    sources allocate through it and every accounted drop is recycled
    after the drop hook has run — drop hooks must not retain packets
    when a pool is in use.

    [compile] (default false) runs the registered whole-graph datapath
    compiler over the instantiated router before returning: push
    connections become direct-call closures and fusable element chains
    collapse into per-packet functions (see {!Oclick_compile}), with
    semantics — outcome totals, drop reasons, conservation, observability
    ledgers — identical to the interpreted path. Errors if no compiler
    was registered ({!register_compiler}) or the compiler conservatively
    rejects the configuration.

    [fuse] (default false) additionally runs the cross-element FDD
    fusion pass inside the compiler: whole push regions of classifiers,
    paint writes/switches, header guards and route lookups collapse
    into one decision-diagram closure per region (see [Oclick_fdd]),
    again with observable behaviour identical by construction. [fuse]
    implies [compile].

    [clock] installs a nanosecond time source on every element
    ({!Element.base.set_clock}) — the aging clock for bounded element
    state ({!Aged_table}). Without it, state never ages (capacity
    bounds still apply). *)

val of_string :
  ?hooks:Hooks.t ->
  ?devices:Netdevice.t list ->
  ?mangle:(Oclick_packet.Packet.t -> unit) ->
  ?quarantine:int ->
  ?batch:int ->
  ?pool:Oclick_packet.Packet.Pool.t ->
  ?compile:bool ->
  ?fuse:bool ->
  ?clock:(unit -> int) ->
  string ->
  (t, string) result
(** Parse, flatten, instantiate. *)

val register_compiler : (fuse:bool -> t -> (unit, string) result) -> unit
(** Install the graph compiler invoked by [instantiate ~compile:true].
    Registered once, by {!Oclick_compile.register} — the indirection
    keeps this library from depending on the compiler that depends on
    it. *)

val element : t -> string -> Element.t option
val element_at : t -> int -> Element.t
val graph : t -> Oclick_graph.Router.t
val size : t -> int

val tasks : t -> Element.t array
(** The task elements in declaration order — the exact array the
    scheduler rounds iterate. Exposed so a sharding layer can split the
    schedule across domains; do not mutate. *)

val compile : ?fuse:bool -> t -> (unit, string) result
(** Run the registered whole-graph compiler over an already-instantiated
    router — equivalent to [instantiate ~compile:true] but deferred, so
    callers can finish per-element setup (hooks, pools) that the compiled
    closures must capture before compilation. [?fuse] as in
    {!instantiate}. *)

val run_tasks_once : t -> bool
(** One scheduler round over all task elements; [true] if any did work.
    Successive rounds rotate their starting task round-robin (round [k]
    starts at task [k mod n]), so no task monopolizes first position. *)

val run_task_array : Element.t array -> start:int -> bool
(** One containment-guarded round over an explicit task array, beginning
    at index [start mod n]: the schedule primitive underlying
    {!run_tasks_once}, exposed for per-shard schedulers that own a slice
    of {!tasks}. *)

val run : t -> rounds:int -> unit

val run_until_idle : ?max_rounds:int -> t -> bool
(** Runs until a full round does no work. Returns whether the router
    actually went idle: [false] means the bound (default 1_000_000
    rounds) was exhausted with work still pending — a livelock, an
    unbounded source, or genuinely unfinished work — in which case a
    warning is also emitted through {!Hooks.on_warn}. *)

val fault_report : t -> (string * int * bool) list
(** [(element name, faults contained, quarantined?)] for every element
    that faulted at least once. *)
