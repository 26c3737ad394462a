(** Execute a partitioned router across real OCaml domains.

    One domain per shard: shard 0 runs on the calling domain, shards
    1..N-1 on spawned domains. Every element is touched by exactly one
    domain — the partition guarantees cross-shard traffic only crosses at
    cut Queues, whose storage is switched to a lock-free SPSC ring
    ({!Oclick_runtime.Spsc}) with the push half (and its drop accounting)
    executing on the producing domain and the pull half on the consuming
    one.

    Observability stays per-domain: [hooks_for shard] supplies the hook
    record for every element of that shard (a cut Queue reports through
    its {e producer} shard's hooks, since that is where its counters
    mutate), so each domain writes only its own ledger; merge them after
    the run ({!Oclick_obs.merge_into}). Packet pools are likewise
    per-domain ({!Oclick_packet.Packet.Pool} is single-domain-owned).

    Ordering guarantee: packets that traverse the same cut ring stay in
    order (SPSC is FIFO), so per-flow order is preserved; packets of
    different flows on different shards may interleave differently than
    a single-domain run. Outcome totals, drop reasons, and conservation
    ledgers are identical at loss-free rates. *)

type t

val create :
  ?hooks_for:(int -> Oclick_runtime.Hooks.t) ->
  ?devices:Oclick_runtime.Netdevice.t list ->
  ?batch:int ->
  ?pool:bool ->
  ?pool_capacity:int ->
  ?compile:bool ->
  ?fuse:bool ->
  ?ring_capacity:int ->
  ?weights:int array ->
  ?clock:(unit -> int) ->
  domains:int ->
  Oclick_graph.Router.t ->
  (t, string) result
(** Partition, instantiate, and prepare the graph for [domains] domains.

    [domains = 1] degenerates to a plain {!Oclick_runtime.Driver}
    instantiation (same hooks, pool, batch, and compile plumbing), so
    results are byte-identical to the unsharded driver.

    For [domains > 1]: the transformed graph is instantiated, every
    element gets its shard's hooks and pool, cut Queues are switched to
    ring mode, and — last, so compiled closures capture the final hooks —
    the whole-graph compiler runs if [compile] is set. [fuse]
    additionally runs the cross-element FDD fusion pass inside each
    shard's compilation (see [Oclick_fdd]; implies [compile]). [pool]
    (default false) gives each domain a private recycling pool of
    [pool_capacity] packets (see {!Oclick_packet.Packet.Pool}). Packets
    crossing cut rings travel by reference, buffer included, and are
    recycled into the consuming domain's pool — the handoff copies no
    packet data.

    [weights] forwards measured per-element costs to
    {!Partition.compute}, so the LPT balance places shards by observed
    cycles instead of element counts (see [oclick-run
    --profile-partition]). *)

type report = {
  rp_converged : bool;
      (** clean quiesce: no abort, no stalled domain *)
  rp_stalled : int list;
      (** domains the watchdog marked stalled (no heartbeat) *)
  rp_leaked : int list;
      (** stalled domains that never returned from their wedged call —
          their domains are leaked (joining would hang) and their
          inbound rings could not be drained *)
  rp_drained : int;
      (** packets drained from stalled shards' inbound rings into
          accounted drops (reason ["stalled domain drained"]) *)
  rp_pressure : int array;
      (** per-domain count of backpressure activations (outbound cut
          ring pressure forced the shard's batch down to 1) *)
}

val run_until_idle_report : ?max_rounds:int -> ?watchdog_ms:int -> t -> report
(** Run every shard's task schedule until the whole router quiesces:
    each domain rotates over its own tasks ({!Oclick_runtime.Driver.run_task_array});
    a domain that stays idle long enough votes quiet, and when all
    domains are quiet and every cut ring is empty the run stops.

    [max_rounds] (default 1_000_000) bounds the number of {e working}
    rounds per domain; exhausting it — or stalling with packets parked in
    a ring nobody drains — aborts the run with a warning through shard
    0's hooks. The stranded-ring abort is wall-clock gated to twice the
    watchdog deadline: a wedged domain looks exactly like stranded ring
    traffic to its peers, and the watchdog must get to diagnose (and
    quarantine) it before the abort fires. Assumes monotone sources (once a task goes idle with
    empty inputs it stays idle), which holds for every source element in
    the tree.

    Overload protection, for [domains > 1]:

    {ul
    {- {b Watchdog}: every domain heartbeats once per scheduler
       iteration; the calling thread supervises. A domain whose
       heartbeat sits still for [watchdog_ms] (default 1000) of wall
       time is marked stalled: the healthy domains stop waiting for it,
       its inbound cut rings are drained to accounted drops after the
       run (reason ["stalled domain drained"]), and the run reports
       degraded ([rp_stalled]) instead of hanging. A stalled domain
       whose wedged element call eventually returns exits cleanly and is
       joined; one that never returns is leaked ([rp_leaked]) and its
       rings are left untouched.}
    {- {b Backpressure}: each domain samples its outbound cut rings;
       sustained occupancy above 7/8 of capacity shrinks the shard's
       effective batch to 1 and yields until the consumer drains below
       half — the receive-livelock rule: stop amplifying work that will
       only become tail drops ([rp_pressure]).}}

    May be called again after it returns; domains are respawned per
    call. *)

val run_until_idle : ?max_rounds:int -> ?watchdog_ms:int -> t -> bool
(** [run_until_idle t = (run_until_idle_report t).rp_converged]. *)

val driver : t -> Oclick_runtime.Driver.t
(** The underlying single instantiation (element lookup, stats, faults).
    Only safe to inspect while no run is in progress. *)

val partition : t -> Partition.t
val domains : t -> int

val pool_stats : t -> Oclick_packet.Packet.Pool.stats array
(** Per-domain pool statistics; empty if [pool] was not requested. *)
