module Driver = Oclick_runtime.Driver
module Element = Oclick_runtime.Element
module Hooks = Oclick_runtime.Hooks
module Netdevice = Oclick_runtime.Netdevice
module Packet = Oclick_packet.Packet

type t = {
  part : Partition.t;
  drv : Driver.t;
  shard_tasks : Element.t array array;
  pools : Packet.Pool.t array;
  ndomains : int;
  warn_hooks : Hooks.t;  (* shard 0's hooks, for runner-level warnings *)
}

(* Wrap a shard's hooks so accounted drops recycle into that shard's
   pool — the same contract Driver.instantiate provides for the
   single-pool case. *)
let wrap_pool_recycle hooks pool =
  let user_on_drop = hooks.Hooks.on_drop in
  {
    hooks with
    Hooks.on_drop =
      (fun ~idx ~cls ~reason p ->
        user_on_drop ~idx ~cls ~reason p;
        Packet.Pool.recycle pool p);
  }

let queue_capacity e =
  match List.assoc_opt "capacity" e#stats with Some c -> c | None -> 1000

let create ?(hooks_for = fun _ -> Hooks.null) ?(devices = []) ?(batch = 1)
    ?(pool = false) ?(pool_capacity = 1024) ?(compile = false) ?(fuse = false)
    ?ring_capacity ?weights ?clock ~domains graph =
  let make_pool () = Packet.Pool.create ~capacity:pool_capacity () in
  if domains < 1 then
    Error (Printf.sprintf "runner: bad domain count %d" domains)
  else if domains = 1 then begin
    (* Degenerate case: exactly the unsharded driver, so single-domain
       results are byte-identical to not using the runner at all. *)
    let hooks = hooks_for 0 in
    let pl = if pool then Some (make_pool ()) else None in
    match
      Driver.instantiate ~hooks ~devices ~batch ?pool:pl ~compile ~fuse ?clock
        graph
    with
    | Error e -> Error e
    | Ok drv ->
        Ok
          {
            part = (match Partition.compute ~domains:1 graph with
                   | Ok p -> p
                   | Error e -> invalid_arg e);
            drv;
            shard_tasks = [| Driver.tasks drv |];
            pools = (match pl with Some p -> [| p |] | None -> [||]);
            ndomains = 1;
            warn_hooks = hooks;
          }
  end
  else begin
    match Partition.compute ?ring_capacity ?weights ~domains graph with
    | Error e -> Error e
    | Ok part -> (
        let pools =
          if pool then Array.init domains (fun _ -> make_pool ()) else [||]
        in
        let shard_hooks =
          Array.init domains (fun s ->
              let h = hooks_for s in
              if pool then wrap_pool_recycle h pools.(s) else h)
        in
        match
          Driver.instantiate ~hooks:Hooks.null ~devices ~batch ~compile:false
            ?clock part.Partition.pt_graph
        with
        | Error e -> Error e
        | Ok drv ->
            (* Every element reports through — and recycles into — its
               own shard's hooks and pool; a cut Queue uses its producer
               shard's, because push (and its drops) runs there. *)
            let hook_shard_of = Array.copy part.Partition.pt_shard_of in
            List.iter
              (fun (c : Partition.cut) ->
                hook_shard_of.(c.Partition.cut_queue) <-
                  c.Partition.cut_from_shard)
              part.Partition.pt_cuts;
            let n = Driver.size drv in
            let setup_err = ref None in
            for i = 0 to n - 1 do
              let e = Driver.element_at drv i in
              let s = hook_shard_of.(i) in
              e#set_hooks shard_hooks.(s);
              if pool then e#set_pool (Some pools.(s))
            done;
            (* Switch cut Queues to ring mode at their configured
               capacity. Must precede compilation: fused closures bind
               element state at compile time. *)
            List.iter
              (fun (c : Partition.cut) ->
                let e = Driver.element_at drv c.Partition.cut_queue in
                let cap = queue_capacity e in
                match e#write_handler "spsc" (string_of_int cap) with
                | Ok () -> ()
                | Error msg ->
                    if !setup_err = None then
                      setup_err := Some (e#name ^ ": " ^ msg))
              part.Partition.pt_cuts;
            match !setup_err with
            | Some e -> Error e
            | None -> (
                let finish () =
                  (* Shared lazies must not be forced concurrently. *)
                  Element.force_scratch_placeholder ();
                  let tasks = Driver.tasks drv in
                  let shard_tasks =
                    Array.init domains (fun s ->
                        Array.of_list
                          (List.filter
                             (fun (e : Element.t) ->
                               part.Partition.pt_shard_of.(e#index) = s)
                             (Array.to_list tasks)))
                  in
                  {
                    part;
                    drv;
                    shard_tasks;
                    pools;
                    ndomains = domains;
                    warn_hooks = shard_hooks.(0);
                  }
                in
                if compile || fuse then
                  match Driver.compile ~fuse drv with
                  | Error e -> Error e
                  | Ok () -> Ok (finish ())
                else Ok (finish ())))
  end

let driver t = t.drv
let partition t = t.part
let domains t = t.ndomains
let pool_stats t = Array.map Packet.Pool.stats t.pools

(* How many consecutive idle rounds before a domain votes quiet, and how
   many all-quiet-but-ring-not-empty polls before declaring a stall
   (packets parked in a ring nobody will drain, e.g. a full device TX
   ring with no consumer). The stall abort is additionally wall-clock
   gated to twice the watchdog deadline: a domain wedged inside an
   element call still holds the quiet vote it cast while idle, so
   "everyone quiet, ring not empty" is exactly what a wedge looks like —
   the watchdog must get its chance to diagnose it before the abort
   hammer falls. *)
let idle_threshold = 32
let stall_threshold = 100_000

(* Backpressure: how often a domain samples its outbound cut rings
   (in loop iterations), and the occupancy fractions that trigger and
   release the shrunk-batch mode. *)
let pressure_check_interval = 64

type report = {
  rp_converged : bool;
  rp_stalled : int list;
  rp_leaked : int list;
  rp_drained : int;
  rp_pressure : int array;
}

let clean_report ~domains converged =
  {
    rp_converged = converged;
    rp_stalled = [];
    rp_leaked = [];
    rp_drained = 0;
    rp_pressure = Array.make domains 0;
  }

let run_until_idle_report ?(max_rounds = 1_000_000) ?(watchdog_ms = 1_000) t =
  if t.ndomains = 1 then
    clean_report ~domains:1 (Driver.run_until_idle ~max_rounds t.drv)
  else begin
    (* Pools may still be claimed by the previous run's (now dead)
       domains; each new domain re-claims on first use. *)
    Array.iter Packet.Pool.detach t.pools;
    let cut_elt (c : Partition.cut) =
      Driver.element_at t.drv c.Partition.cut_queue
    in
    let cuts = t.part.Partition.pt_cuts in
    let work_stamp = Atomic.make 0 in
    let quiet = Atomic.make 0 in
    (* Quiet domains currently inside a task run. A quiet domain that
       finds work still counts as quiet until the run returns; if that
       run popped one ring and has not yet pushed into the next, every
       ring reads empty and the stamp has not moved, so without this
       count a peer could stop the run with packets in the task's
       hands. *)
    let busy = Atomic.make 0 in
    let stop = Atomic.make false in
    let aborted = Atomic.make false in
    (* Watchdog state. [hb] is bumped by its domain once per scheduler
       iteration; the supervisor (the calling thread) marks a domain
       [stalled] when its heartbeat sits still for [watchdog_ms] of wall
       time and bumps [nstalled], which the healthy domains subtract
       from the quorum so they can reach the termination condition
       without it. (The stalled domain's own quiet vote — cast while
       idle, stale once it wedged — must not be double-counted, which is
       why the supervisor does not vote on its behalf.) A marked domain
       checks the flag at the top of its loop: if its wedged element
       call ever returns, it withdraws any stale quiet vote, sets
       [exited] and leaves. *)
    let hb = Array.init t.ndomains (fun _ -> Atomic.make 0) in
    let stalled = Array.init t.ndomains (fun _ -> Atomic.make false) in
    let nstalled = Atomic.make 0 in
    let exited = Array.init t.ndomains (fun _ -> Atomic.make false) in
    let deadline_s = float_of_int (max 1 watchdog_ms) /. 1000.0 in
    let pressure = Array.make t.ndomains 0 in
    let ring_len (e : Element.t) =
      match List.assoc_opt "length" e#stats with Some l -> l | None -> 0
    in
    let rings_empty () =
      (* Rings consumed by a stalled shard are excluded: nobody will
         drain them, and waiting for them would turn the stall back into
         a hang. They are drained to accounted drops after the run. *)
      List.for_all
        (fun (c : Partition.cut) ->
          Atomic.get stalled.(c.Partition.cut_to_shard)
          || ring_len (cut_elt c) = 0)
        cuts
    in
    let run_shard d =
      let tasks = t.shard_tasks.(d) in
      let n = Array.length tasks in
      let rr = ref 0 in
      let budget = ref max_rounds in
      let idle = ref 0 in
      let in_quiet = ref false in
      let stalls = ref 0 in
      let stall_t0 = ref 0.0 in
      (* This shard's outbound cut rings, with trigger/release
         occupancy levels. *)
      let outbound =
        List.filter_map
          (fun (c : Partition.cut) ->
            if c.Partition.cut_from_shard = d then begin
              let e = cut_elt c in
              let cap = queue_capacity e in
              Some (e, max 1 (cap * 7 / 8), cap / 2)
            end
            else None)
          cuts
      in
      let shrunk = ref false in
      let saved_batch = Array.map (fun (e : Element.t) -> e#batch_size) tasks in
      let check_pressure () =
        (* Livelock avoidance under sustained ring pressure: drop the
           effective batch to 1 (the producer stops slamming full rings
           with whole batches whose tails become drops) and yield, until
           the consumer drains below the release level. *)
        let over =
          List.exists (fun (e, high, _) -> ring_len e >= high) outbound
        in
        let clear =
          (not over) && List.for_all (fun (e, _, low) -> ring_len e <= low) outbound
        in
        if over && not !shrunk then begin
          shrunk := true;
          pressure.(d) <- pressure.(d) + 1;
          Array.iter (fun (e : Element.t) -> e#set_batch_size 1) tasks
        end
        else if clear && !shrunk then begin
          shrunk := false;
          Array.iteri
            (fun i (e : Element.t) -> e#set_batch_size saved_batch.(i))
            tasks
        end;
        if over then Domain.cpu_relax ()
      in
      let iters = ref 0 in
      let enter_quiet () =
        if (not !in_quiet) && not (Atomic.get stalled.(d)) then begin
          in_quiet := true;
          Atomic.incr quiet
        end
      in
      let leave_quiet () =
        if !in_quiet then begin
          in_quiet := false;
          Atomic.decr quiet
        end
      in
      while not (Atomic.get stop || Atomic.get stalled.(d)) do
        Atomic.incr hb.(d);
        incr iters;
        if outbound <> [] && !iters mod pressure_check_interval = 0 then
          check_pressure ();
        let was_quiet = !in_quiet in
        if was_quiet then Atomic.incr busy;
        let did = n > 0 && Driver.run_task_array tasks ~start:!rr in
        if n > 0 then rr := (!rr + 1) mod n;
        if did then begin
          leave_quiet ();
          idle := 0;
          stalls := 0;
          Atomic.incr work_stamp;
          decr budget;
          if !budget <= 0 then begin
            Atomic.set aborted true;
            Atomic.set stop true
          end
        end;
        (* After the stamp bump: a peer that reads [busy] = 0 then sees
           the moved stamp. *)
        if was_quiet then Atomic.decr busy;
        if not did then begin
          incr idle;
          if !idle >= idle_threshold then enter_quiet ();
          if !in_quiet then begin
            (* Termination: everyone quiet and nothing in flight. The
               stamp re-read rules out a peer that grabbed work between
               our two checks. *)
            let stamp = Atomic.get work_stamp in
            if Atomic.get quiet >= t.ndomains - Atomic.get nstalled then begin
              if
                rings_empty ()
                && Atomic.get busy = 0
                && Atomic.get work_stamp = stamp
              then
                Atomic.set stop true
              else begin
                if !stalls = 0 then stall_t0 := Unix.gettimeofday ();
                incr stalls;
                if
                  !stalls >= stall_threshold
                  && Unix.gettimeofday () -. !stall_t0 >= 2.0 *. deadline_s
                then begin
                  Atomic.set aborted true;
                  Atomic.set stop true
                end
              end
            end
            else stalls := 0;
            if not (Atomic.get stop) then Domain.cpu_relax ()
          end
        end
      done;
      leave_quiet ();
      if !shrunk then
        Array.iteri
          (fun i (e : Element.t) -> e#set_batch_size saved_batch.(i))
          tasks;
      Atomic.set exited.(d) true
    in
    (* All shards run on spawned domains; the calling thread is the
       supervisor. (Running shard 0 inline would leave nobody to detect
       shard 0 stalling.) *)
    let spawned =
      Array.init t.ndomains (fun d -> Domain.spawn (fun () -> run_shard d))
    in
    let last_hb = Array.map Atomic.get hb in
    let last_change = Array.make t.ndomains (Unix.gettimeofday ()) in
    while not (Atomic.get stop) do
      Unix.sleepf 0.001;
      let now = Unix.gettimeofday () in
      for d = 0 to t.ndomains - 1 do
        if not (Atomic.get stalled.(d) || Atomic.get exited.(d)) then begin
          let h = Atomic.get hb.(d) in
          if h <> last_hb.(d) then begin
            last_hb.(d) <- h;
            last_change.(d) <- now
          end
          else if now -. last_change.(d) >= deadline_s then begin
            Atomic.set stalled.(d) true;
            Atomic.incr nstalled;
            t.warn_hooks.Hooks.on_warn ~src:"parallel"
              (Printf.sprintf
                 "watchdog: domain %d stalled (no heartbeat for %d ms); \
                  quarantining its shard" d watchdog_ms)
          end
        end
      done;
      (* Every domain stalled: nobody is left to decide termination. *)
      if Array.for_all Atomic.get stalled then Atomic.set stop true
    done;
    (* Join the domains that exited on their own; give stalled domains a
       grace period to notice the flag once their wedged call returns.
       A domain that never returns is leaked — joining it would be the
       very hang the watchdog exists to avoid. *)
    let joined = Array.make t.ndomains false in
    let join_if_exited d =
      if (not joined.(d)) && Atomic.get exited.(d) then begin
        Domain.join spawned.(d);
        joined.(d) <- true
      end
    in
    for d = 0 to t.ndomains - 1 do
      if not (Atomic.get stalled.(d)) then begin
        Domain.join spawned.(d);
        joined.(d) <- true
      end
    done;
    let grace_until = Unix.gettimeofday () +. (2.0 *. deadline_s) in
    let all_joined () = Array.for_all Fun.id joined in
    while (not (all_joined ())) && Unix.gettimeofday () < grace_until do
      Unix.sleepf 0.001;
      for d = 0 to t.ndomains - 1 do
        join_if_exited d
      done
    done;
    for d = 0 to t.ndomains - 1 do
      join_if_exited d
    done;
    (* Drain the stalled shards' inbound rings to accounted drops — but
       only rings whose producer and consumer domains have both
       terminated, so the SPSC single-consumer contract (and the
       per-domain ownership of hooks) still holds. The drop reports
       through the cut Queue, i.e. the producer shard's hooks, like
       every other drop at that queue. *)
    let drained = ref 0 in
    List.iter
      (fun (c : Partition.cut) ->
        let consumer = c.Partition.cut_to_shard in
        let producer = c.Partition.cut_from_shard in
        if Atomic.get stalled.(consumer) && joined.(consumer) && joined.(producer)
        then begin
          let e = cut_elt c in
          let continue = ref true in
          while !continue do
            match e#pull 0 with
            | Some p ->
                incr drained;
                e#drop ~reason:"stalled domain drained" p
            | None -> continue := false
          done
        end)
      cuts;
    let stalled_l =
      List.filter
        (fun d -> Atomic.get stalled.(d))
        (List.init t.ndomains Fun.id)
    in
    let leaked = List.filter (fun d -> not joined.(d)) stalled_l in
    let converged = (not (Atomic.get aborted)) && stalled_l = [] in
    if Atomic.get aborted then
      t.warn_hooks.Hooks.on_warn ~src:"parallel"
        (Printf.sprintf
           "run_until_idle: aborted after %d working rounds on some domain \
            (possible livelock or stranded ring traffic)"
           max_rounds);
    if !drained > 0 then
      t.warn_hooks.Hooks.on_warn ~src:"parallel"
        (Printf.sprintf
           "watchdog: drained %d packet(s) from stalled shards' rings to \
            accounted drops" !drained);
    {
      rp_converged = converged;
      rp_stalled = stalled_l;
      rp_leaked = leaked;
      rp_drained = !drained;
      rp_pressure = pressure;
    }
  end

let run_until_idle ?max_rounds ?watchdog_ms t =
  (run_until_idle_report ?max_rounds ?watchdog_ms t).rp_converged
