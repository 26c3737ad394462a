(** Per-element observability: counters, cost attribution, event trace.

    The paper's evaluation explains every optimization by breaking
    forwarding cost down element-by-element; this module is that layer
    for oclick. An {!t} accumulates, per instantiated element:

    - packet counters — packets in/out (total and per port), push/pull
      invocations, batched transfers, drops by reason, spawns, pool
      recycles;
    - two cost columns — simulated nanoseconds charged by the testbed's
      cost model ({!charge_sim_ns}), and an estimate of wall-clock
      nanoseconds, sampled between hook events when running under the
      plain driver ({!hooks} with [~wall:true]).

    Observation is threaded through {!Oclick_runtime.Hooks}: wrap any
    base hooks with {!hooks} and install the result. When observation
    is off nothing is wrapped, so the hot path pays nothing. When it is
    on, packets and invocations are counted in flat per-port int cells
    (two increments per transfer report, no allocation), and the
    per-element view is folded from those cells when it is read
    ({!snapshot}, {!merge_into}). There is no work column: element
    charges ({!Oclick_runtime.Hooks.t.on_work}) are cost-model input,
    not observation, and {!hooks} does not see them. *)

module Hooks = Oclick_runtime.Hooks

(** Bounded ring-buffer event trace: the last [capacity] packet events
    (transfer, drop, spawn), oldest overwritten first. *)
module Trace : sig
  type kind = Push | Pull | Drop | Spawn

  type event = {
    ev_seq : int;  (** position in the run's full event stream *)
    ev_ns : int;  (** timestamp from the clock given to {!hooks} *)
    ev_kind : kind;
    ev_src_idx : int;
    ev_src_port : int;
    ev_dst_idx : int;  (** [-1] for drop/spawn events *)
    ev_dst_port : int;
    ev_packet : int;  (** {!Oclick_packet.Packet.id} *)
    ev_reason : string;  (** drop reason; [""] otherwise *)
  }

  type t

  val create : int -> t
  (** [create cap] — ring of capacity [cap]; raises [Invalid_argument]
      if [cap <= 0]. *)

  val capacity : t -> int
  val seen : t -> int
  (** Events ever recorded (including overwritten ones). *)

  val length : t -> int
  (** Events currently held: [min seen capacity]. *)

  val events : t -> event list
  (** Retained events, oldest first. *)

  val reset : t -> unit
  val kind_name : kind -> string
end

type t

val create : ?trace:int -> ?recycles:bool -> unit -> t
(** [create ()] — an empty accumulator. [?trace] enables the event ring
    with the given capacity. [~recycles:true] counts each drop as a pool
    recycle too (install it when the driver runs with a packet pool,
    whose recycle-on-drop path reclaims every dropped packet). *)

val reset : t -> unit
(** Zero every counter, cost column and the trace, keeping element
    metadata and the learned ports. The testbed calls this at the warmup
    boundary, so the columns cover exactly the measurement window
    onward. *)

val clear : t -> unit
(** Like {!reset}, but also forget every element, its metadata and its
    learned ports. The testbed calls this at the start of each run, so
    an accumulator reused across runs of different graphs carries
    nothing over. *)

val set_meta : t -> idx:int -> name:string -> cls:string -> unit
(** Record an element's name and class for rendering. *)

val charge_sim_ns : t -> idx:int -> int -> unit
(** Attribute simulated nanoseconds to element [idx] (no-op for a
    negative index). The testbed mirrors every aggregate charge through
    this, so per-element totals equal the aggregate exactly. *)

val merge_into : src:t -> dst:t -> unit
(** Fold [src] into [dst]: [src]'s per-port cells add into [dst]'s
    (which learns any port it has not seen), element counters and cost
    columns add per element index, drop-reason tables merge, metadata
    fills empty slots, and [src]'s trace events (if both sides trace)
    append to [dst]'s ring in [src] order. [src] is left untouched. The
    multi-domain runner keeps one accumulator per domain — each written
    only by its owner — and merges them in shard order after the run, so
    the combined ledger is deterministic and its totals satisfy the same
    exact-sum invariants as a single-domain ledger. *)

val hooks : ?now:(unit -> int) -> ?wall:bool -> t -> Hooks.t -> Hooks.t
(** [hooks t base] — hooks that forward every event to [base] and then
    count it in [t]. What is wrapped:

    - [on_transfer], [on_transfer_batch], [on_drop] and [on_spawn]
      count. Each transfer report adds to one cell of the port that
      initiated it (a push's output port, a pull's input port); the
      element at the other end is learned the first time the port
      reports. Where [base] has no hook for an event, nothing is called
      into it.
    - [on_work], [on_fault] and [on_warn] are [base]'s own, untouched.
      So under a [base] without a work hook (the plain driver) an
      observed router keeps {!Oclick_runtime.Element.base}'s lean
      charge sites, the same compiled and fused plans, and the same
      element bodies as an unobserved one; the testbed's charges still
      reach its cost hooks.

    [?now] supplies timestamps in nanoseconds (default: a constant 0).
    The trace ring ({!create}'s [?trace]) stamps every event with it.

    [~wall:true] adds the wall-clock column, an {e estimate}: the time
    between two consecutive events belongs to the element that runs in
    between (a transfer's destination, a drop's dropper). One such
    interval in 64, on average, is timed with two reads of [now] and
    charged 64 times its length. The gaps between timed intervals are
    drawn from a seeded generator, so a path that repeats with a fixed
    period is not aliased. An interval that spans a return to the
    scheduler is charged to the last element that ran before it.
    Elements that see no event read 0, and so does every element of a
    run too short to reach its first timed interval (up to 126
    events). *)

val trace : t -> Trace.t option

(** {2 Snapshots} *)

type stats = {
  s_idx : int;
  s_name : string;
  s_class : string;
  s_pushes : int;  (** scalar push invocations received *)
  s_pulls : int;  (** scalar pulls serviced (that moved a packet) *)
  s_batches : int;  (** batched transfers serviced *)
  s_in : int;
  s_out : int;
  s_in_ports : (int * int) list;  (** (port, packets), active ports only *)
  s_out_ports : (int * int) list;
  s_drop_reasons : (string * int) list;
  s_drops : int;
  s_spawns : int;
  s_recycles : int;
  s_sim_ns : int;
  s_wall_ns : int;
}

val snapshot : t -> stats list
(** Every element with recorded activity or metadata, by index. *)

val total_sim_ns : t -> int
val total_wall_ns : t -> int
val total_drops : t -> int

val cost_weights : ?wall:bool -> t -> int array
(** The measured cost columns as partition weights: entry [i] is element
    [i]'s simulated nanoseconds ([~wall:true]: the sampled wall-clock
    estimate, which is what [oclick-run --profile-partition] reads),
    floored at 1 so untouched elements still count as present. Indexed
    by the same dense element indices the driver reports to hooks, which
    is exactly the convention {!Oclick_parallel.Partition.compute}
    expects for its [?weights] — feed a single-domain profiling run's
    ledger straight in to balance shards by observed cost. *)

val drop_reasons : t -> (string * int) list
(** Drop totals per reason across all elements, sorted — directly
    comparable with the testbed ledger's drop table. *)

(** Minimal JSON layer (printer and parser) used by the report renderer
    and by schema validation in tests/CI. *)
module Json : sig
  type value =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of value list
    | Obj of (string * value) list

  val to_string : value -> string
  val of_string : string -> (value, string) result
  val member : string -> value -> value option
end

(** The paper-style per-element breakdown table. *)
module Report : sig
  type mode =
    | Sim of float  (** CPU MHz — cost column is simulated cycles *)
    | Wall  (** cost column is wall-clock nanoseconds *)

  val table : ?top:int -> mode -> t -> string
  (** Text table: one row per element, sorted by cost descending, with
      a cost-per-packet column and percent of total. [?top] keeps only
      the [top] most expensive rows and collapses the rest into a
      single ["(other: n)"] aggregate row (index -1), so the table
      still sums to the same totals. [top <= 0] means no truncation. *)

  val json : ?top:int -> mode -> t -> Json.value
  (** The same data as {!table}, including its [?top] truncation: an
      object with [cost_unit], [total_ns], [total_cost] and an
      [elements] array. Truncated output still passes {!validate} —
      the aggregate row carries the tail's cost. *)

  val validate : Json.value -> (unit, string) result
  (** Schema check for {!json} output (shape, field types, and that
      per-element costs sum to the stated total). *)
end
