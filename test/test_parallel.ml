(* Tests for the multicore datapath: the SPSC ring, the graph
   partitioner's invariants over every example configuration, scheduler
   rotation, per-domain pool ownership, the real multi-domain runner's
   differential against the single-domain driver, and the simulated
   testbed's multi-CPU differential. *)

module Spsc = Oclick_runtime.Spsc
module Driver = Oclick_runtime.Driver
module Router = Oclick_graph.Router
module Partition = Oclick_parallel.Partition
module Runner = Oclick_parallel.Runner
module Testbed = Oclick_hw.Testbed
module Platform = Oclick_hw.Platform
module Packet = Oclick_packet.Packet
module Pool = Oclick_packet.Packet.Pool

let () = Oclick_elements.register_all ()
let () = Oclick_compile.register ()
let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- SPSC ring ---------------------------------------------------------- *)

let test_spsc_fifo () =
  let r = Spsc.create ~dummy:0 5 in
  check "capacity as requested" 5 (Spsc.capacity r);
  check_bool "starts empty" true (Spsc.is_empty r);
  for i = 1 to 5 do
    check_bool "push accepted" true (Spsc.push r i)
  done;
  check_bool "push refused at capacity" false (Spsc.push r 6);
  check "length full" 5 (Spsc.length r);
  check "fifo pop" 1 (Option.get (Spsc.pop r));
  check_bool "slot freed" true (Spsc.push r 6);
  List.iter
    (fun expect -> check "fifo order" expect (Option.get (Spsc.pop r)))
    [ 2; 3; 4; 5; 6 ];
  check_bool "pop on empty" true (Spsc.pop r = None);
  check_bool "invalid capacity" true
    (try
       ignore (Spsc.create ~dummy:0 0);
       false
     with Invalid_argument _ -> true)

let test_spsc_cross_domain () =
  let n = 100_000 in
  let r = Spsc.create ~dummy:0 1024 in
  let consumer =
    Domain.spawn (fun () ->
        let sum = ref 0 and got = ref 0 in
        while !got < n do
          match Spsc.pop r with
          | Some v ->
              (* FIFO across domains: values arrive in push order. *)
              assert (v = !got + 1);
              sum := !sum + v;
              incr got
          | None -> Domain.cpu_relax ()
        done;
        !sum)
  in
  for i = 1 to n do
    while not (Spsc.push r i) do
      Domain.cpu_relax ()
    done
  done;
  check "sum across domains" (n * (n + 1) / 2) (Domain.join consumer)

(* --- partition invariants over the example configurations --------------- *)

let example_configs () =
  (* cwd is test/ under `dune runtest`, the workspace root under
     `dune exec test/test_parallel.exe`. *)
  let dir =
    if Sys.file_exists "../examples/configs" then "../examples/configs"
    else "examples/configs"
  in
  Sys.readdir dir
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".click")
  |> List.sort compare
  |> List.map (fun f ->
         let ic = open_in_bin (Filename.concat dir f) in
         let len = in_channel_length ic in
         let s = really_input_string ic len in
         close_in ic;
         (f, s))

let parse_exn name src =
  match Router.parse_string src with
  | Ok g -> g
  | Error e -> Alcotest.failf "%s: %s" name e

(* Every element lands in exactly one shard, and cross-shard hookups only
   enter Queue-class elements — the one place a cut is semantically
   transparent. *)
let check_partition name domains (p : Partition.t) =
  let g = p.Partition.pt_graph in
  let seen = Hashtbl.create 64 in
  Array.iteri
    (fun shard members ->
      List.iter
        (fun i ->
          if Hashtbl.mem seen i then
            Alcotest.failf "%s domains=%d: element %d in two shards" name
              domains i;
          Hashtbl.replace seen i shard)
        members)
    p.Partition.pt_shards;
  List.iter
    (fun i ->
      match Hashtbl.find_opt seen i with
      | None ->
          Alcotest.failf "%s domains=%d: element %d (%s) in no shard" name
            domains i (Router.name g i)
      | Some shard ->
          if shard <> p.Partition.pt_shard_of.(i) then
            Alcotest.failf "%s domains=%d: shard_of disagrees at %d" name
              domains i)
    (Router.indices g);
  List.iter
    (fun (h : Router.hookup) ->
      let sf = p.Partition.pt_shard_of.(h.Router.from_idx)
      and st = p.Partition.pt_shard_of.(h.Router.to_idx) in
      if sf <> st && Router.class_of g h.Router.to_idx <> "Queue" then
        Alcotest.failf
          "%s domains=%d: cross-shard hookup %s -> %s enters a %s" name
          domains
          (Router.name g h.Router.from_idx)
          (Router.name g h.Router.to_idx)
          (Router.class_of g h.Router.to_idx))
    (Router.hookups g);
  (* Every reported cut is a Queue whose producer shard differs. *)
  List.iter
    (fun (c : Partition.cut) ->
      if Router.class_of g c.Partition.cut_queue <> "Queue" then
        Alcotest.failf "%s domains=%d: cut %s is not a Queue" name domains
          c.Partition.cut_queue_name;
      if c.cut_from_shard = c.cut_to_shard then
        Alcotest.failf "%s domains=%d: cut %s does not cross shards" name
          domains c.Partition.cut_queue_name)
    p.Partition.pt_cuts

let test_partition_examples () =
  let configs = example_configs () in
  check_bool "found example configs" true (configs <> []);
  List.iter
    (fun (name, src) ->
      List.iter
        (fun domains ->
          match Partition.compute ~domains (parse_exn name src) with
          | Error e -> Alcotest.failf "%s domains=%d: %s" name domains e
          | Ok p -> check_partition name domains p)
        [ 1; 2; 3; 4 ])
    configs

let test_partition_trivial () =
  List.iter
    (fun (name, src) ->
      let g = parse_exn name src in
      let before = Router.to_string g in
      match Partition.compute ~domains:1 g with
      | Error e -> Alcotest.failf "%s: %s" name e
      | Ok p ->
          check_bool (name ^ " no cuts") true (p.Partition.pt_cuts = []);
          check_bool (name ^ " nothing inserted") true
            (p.Partition.pt_inserted = []);
          check_bool (name ^ " all elements in shard 0") true
            (Array.for_all (fun s -> s = 0) p.Partition.pt_shard_of);
          Alcotest.(check string)
            (name ^ " graph unchanged")
            before
            (Router.to_string p.Partition.pt_graph))
    (example_configs ())

(* --- weighted partitions ------------------------------------------------- *)

(* A deterministic, heavily skewed weight vector: every element gets a
   distinct moderate cost, every seventh a dominating one — the shape a
   measured ledger takes when one element class is far hotter than the
   rest. *)
let skewed_weights g =
  let n = List.length (Router.indices g) in
  Array.init n (fun i ->
      1 + (i * 37 mod 97) + if i mod 7 = 0 then 5_000 else 0)

(* Cost-weighted partitions must respect exactly the invariants the
   unweighted ones do: weights move elements between shards, never
   across anything but a Queue boundary. *)
let test_partition_weighted_invariants () =
  List.iter
    (fun (name, src) ->
      let g = parse_exn name src in
      let weights = skewed_weights g in
      List.iter
        (fun domains ->
          match Partition.compute ~weights ~domains g with
          | Error e -> Alcotest.failf "%s domains=%d: %s" name domains e
          | Ok p -> check_partition name domains p)
        [ 2; 3; 4 ])
    (example_configs ())

(* Identical weight inputs give byte-identical partitions: the rewritten
   graph prints the same, and every element lands in the same shard. *)
let test_partition_weighted_determinism () =
  List.iter
    (fun (name, src) ->
      List.iter
        (fun domains ->
          let run () =
            let g = parse_exn name src in
            let weights = skewed_weights g in
            match Partition.compute ~weights ~domains g with
            | Error e -> Alcotest.failf "%s domains=%d: %s" name domains e
            | Ok p ->
                ( Router.to_string p.Partition.pt_graph,
                  Array.to_list p.Partition.pt_shard_of,
                  Array.to_list (Partition.shard_weights ~weights p) )
          in
          let s1, shard1, w1 = run () in
          let s2, shard2, w2 = run () in
          Alcotest.(check string)
            (Printf.sprintf "%s domains=%d graph bytes" name domains)
            s1 s2;
          Alcotest.(check (list int))
            (Printf.sprintf "%s domains=%d shard_of" name domains)
            shard1 shard2;
          Alcotest.(check (list int))
            (Printf.sprintf "%s domains=%d shard weights" name domains)
            w1 w2)
        [ 2; 4 ])
    (example_configs ())

(* No cost is lost or invented by placement: the per-shard weights sum
   to the whole graph's measured weight plus one unit per inserted ring
   stage (inserted stages are not in the measured ledger, so they cost
   the floor weight of 1). *)
let test_partition_weight_accounting () =
  List.iter
    (fun (name, src) ->
      let g = parse_exn name src in
      let weights = skewed_weights g in
      List.iter
        (fun domains ->
          match Partition.compute ~weights ~domains g with
          | Error e -> Alcotest.failf "%s domains=%d: %s" name domains e
          | Ok p ->
              let total =
                Array.fold_left ( + ) 0 (Partition.shard_weights ~weights p)
              in
              let expected =
                Array.fold_left ( + ) 0 weights
                + (2 * List.length p.Partition.pt_inserted)
              in
              check
                (Printf.sprintf "%s domains=%d weight accounting" name domains)
                expected total)
        [ 2; 3; 4 ])
    (example_configs ())

(* Four parallel chains with equal element counts, one hiding all the
   cost: static LPT balances counts and pairs the hot chain with a cold
   one; weighted LPT isolates it. Evaluated under the measured weights,
   the weighted placement's busiest shard must never exceed static's. *)
let test_partition_weighted_balance () =
  let src =
    String.concat "\n"
      (List.init 4 (fun i ->
           Printf.sprintf
             "s%d :: InfiniteSource(LIMIT 10) -> c%d :: Counter -> q%d :: \
              Queue(100) -> d%d :: Discard;"
             i i i i))
  in
  let g = parse_exn "balance" src in
  let n = List.length (Router.indices g) in
  let weights = Array.make n 1 in
  (* Chain 0's counter carries the load. Declaration order: s0 c0 q0 d0
     s1 c1 ... — index 1 is c0. *)
  weights.(1) <- 10_000;
  List.iter
    (fun domains ->
      let busiest p =
        Array.fold_left max 0 (Partition.shard_weights ~weights p)
      in
      let static =
        match Partition.compute ~domains g with
        | Ok p -> busiest p
        | Error e -> Alcotest.failf "static domains=%d: %s" domains e
      in
      let weighted =
        match Partition.compute ~weights ~domains g with
        | Ok p -> busiest p
        | Error e -> Alcotest.failf "weighted domains=%d: %s" domains e
      in
      check_bool
        (Printf.sprintf "weighted busiest <= static busiest (domains=%d)"
           domains)
        true (weighted <= static))
    [ 2; 3; 4 ]

(* --- scheduler rotation -------------------------------------------------- *)

(* Three sources compete for a one-slot queue; the test pops the winner
   between rounds. Rotation means round k starts at task (k mod 3), so
   the winners cycle through the sources — without it, the first source
   would win every round. Packet lengths identify the winner. *)
let test_rotation_fairness () =
  let d =
    match
      Driver.of_string
        "s0 :: InfiniteSource(LIMIT 3, LENGTH 60) -> q :: Queue(1);\n\
         s1 :: InfiniteSource(LIMIT 3, LENGTH 61) -> q;\n\
         s2 :: InfiniteSource(LIMIT 3, LENGTH 62) -> q;\n\
         q -> Idle;"
    with
    | Ok d -> d
    | Error e -> Alcotest.failf "%s" e
  in
  let q = Option.get (Driver.element d "q") in
  let winners =
    List.init 3 (fun _ ->
        ignore (Driver.run_tasks_once d);
        match q#pull 0 with
        | Some p -> Packet.length p
        | None -> Alcotest.fail "queue empty after a round")
  in
  Alcotest.(check (list int)) "each source wins a round" [ 60; 61; 62 ] winners

(* --- pool ownership ------------------------------------------------------ *)

(* With assertions compiled in (the default build), a pool claimed by one
   domain refuses service from another until it is detached. *)
let asserts_enabled () =
  let hit = ref false in
  (try assert (hit := true; true) with _ -> ());
  !hit

let test_pool_domain_ownership () =
  let pool = Pool.create ~capacity:8 () in
  Pool.recycle pool (Packet.create 32);
  (* claimed by this domain *)
  if asserts_enabled () then begin
    let raised =
      Domain.join
        (Domain.spawn (fun () ->
             try
               ignore (Pool.alloc pool 32);
               false
             with Assert_failure _ -> true))
    in
    check_bool "foreign domain refused" true raised
  end;
  (* detach hands the idle pool to the next domain that touches it *)
  Pool.detach pool;
  let ok =
    Domain.join
      (Domain.spawn (fun () ->
           let p = Pool.alloc pool 32 in
           Packet.length p = 32))
  in
  check_bool "detached pool adopted" true ok

(* A pooled packet crosses an SPSC ring by reference and is recycled
   into the consuming domain's pool, which then serves it again. *)
let test_pool_cross_domain_handoff () =
  let pool = Pool.create ~capacity:8 () in
  let p = Pool.alloc pool 64 in
  for i = 0 to 63 do
    Packet.set_u8 p i 0xab
  done;
  let id0 = Packet.id p in
  let ring = Spsc.create ~dummy:(Packet.create 0) 4 in
  let consumer =
    Domain.spawn (fun () ->
        let rec pop () =
          match Spsc.pop ring with
          | Some q -> q
          | None ->
              Domain.cpu_relax ();
              pop ()
        in
        let q = pop () in
        let seen = Packet.get_u8 q 63 in
        let local = Pool.create ~capacity:8 () in
        Pool.recycle local q;
        let r = Pool.alloc local 64 in
        ( r == q,
          seen,
          Packet.id r,
          String.for_all (fun c -> c = '\000') (Packet.to_string r),
          (Pool.stats local).Pool.st_reuses ))
  in
  check_bool "pushed" true (Spsc.push ring p);
  let same, seen, id, zeroed, reuses = Domain.join consumer in
  check "payload crossed intact" 0xab seen;
  check_bool "same descriptor served again" true same;
  check "served from the receiving pool's free list" 1 reuses;
  check_bool "window zeroed" true zeroed;
  check_bool "fresh id" true (id <> id0)

(* --- multi-domain runner differential ------------------------------------ *)

let runner_config =
  "s0 :: InfiniteSource(LIMIT 500) -> c0 :: Counter -> all :: Counter;\n\
   s1 :: InfiniteSource(LIMIT 400) -> c1 :: Counter -> all;\n\
   s2 :: InfiniteSource(LIMIT 300) -> c2 :: Counter -> all;\n\
   all -> q :: Queue(2000) -> d :: Discard;"

(* Totals that must be invariant across domain counts at loss-free ring
   sizing: per-source counters and final deliveries. *)
let runner_totals ~domains ~batch ~pool ~compile () =
  let g = parse_exn "runner" runner_config in
  match
    Runner.create ~ring_capacity:4096 ~batch ~pool ~compile ~domains g
  with
  | Error e -> Alcotest.failf "runner domains=%d: %s" domains e
  | Ok r ->
      check_bool
        (Printf.sprintf "domains=%d converged" domains)
        true
        (Runner.run_until_idle r);
      let drv = Runner.driver r in
      let stat name key =
        List.assoc key (Option.get (Driver.element drv name))#stats
      in
      let drops = ref 0 in
      for i = 0 to Driver.size drv - 1 do
        match List.assoc_opt "drops" (Driver.element_at drv i)#stats with
        | Some n -> drops := !drops + n
        | None -> ()
      done;
      ( stat "c0" "packets",
        stat "c1" "packets",
        stat "c2" "packets",
        stat "all" "packets",
        stat "d" "count",
        !drops )

let test_runner_differential () =
  List.iter
    (fun (batch, pool, compile) ->
      let reference = runner_totals ~domains:1 ~batch ~pool ~compile () in
      let c0, c1, c2, all, delivered, drops = reference in
      check "reference delivery" 1200 delivered;
      check "reference drops" 0 drops;
      ignore (c0, c1, c2, all);
      List.iter
        (fun domains ->
          let got = runner_totals ~domains ~batch ~pool ~compile () in
          (* Printed whole, so a divergence names the counter. *)
          let show (c0, c1, c2, all, delivered, drops) =
            Printf.sprintf "c0=%d c1=%d c2=%d all=%d delivered=%d drops=%d" c0
              c1 c2 all delivered drops
          in
          Alcotest.(check string)
            (Printf.sprintf "domains=%d totals (batch=%d pool=%b compile=%b)"
               domains batch pool compile)
            (show reference) (show got))
        [ 2; 3; 4 ])
    [ (1, false, false); (8, true, false); (1, false, true); (8, true, true) ]

(* Undersized rings drop under the unpaced burst, but never leak: the
   delivered plus dropped totals still account for every packet born. *)
let test_runner_conservation_under_ring_pressure () =
  let g = parse_exn "runner" runner_config in
  match Runner.create ~ring_capacity:16 ~domains:3 g with
  | Error e -> Alcotest.failf "%s" e
  | Ok r ->
      check_bool "converged" true (Runner.run_until_idle r);
      let drv = Runner.driver r in
      let delivered =
        List.assoc "count" (Option.get (Driver.element drv "d"))#stats
      in
      let drops = ref 0 in
      for i = 0 to Driver.size drv - 1 do
        match List.assoc_opt "drops" (Driver.element_at drv i)#stats with
        | Some n -> drops := !drops + n
        | None -> ()
      done;
      check "conservation" 1200 (delivered + !drops)

(* --- simulated testbed differential -------------------------------------- *)

let graph8 =
  Oclick.Ip_router.graph
    (Oclick.Ip_router.config (Oclick.Ip_router.standard_interfaces 8))

let platform8 = { Platform.p2 with Platform.p_nports = 8 }

let flows8 =
  List.init 8 (fun i -> { Testbed.fl_src = i; Testbed.fl_dst = (i + 4) mod 8 })

let run_tb ~domains input_pps =
  match
    Testbed.run ~duration_ms:10 ~warmup_ms:5 ~platform:platform8 ~graph:graph8
      ~flows:flows8 ~domains ~batch:32 ~compile:true ~input_pps ()
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "testbed domains=%d: %s" domains e

let test_testbed_differential () =
  (* 60k pps aggregate is far below single-CPU saturation: loss-free, so
     every domain count must produce identical outcome totals. *)
  let reference = run_tb ~domains:1 60_000 in
  check_bool "reference delivered traffic" true
    (reference.Testbed.r_outcomes_total.Testbed.oc_sent > 0);
  List.iter
    (fun domains ->
      let r = run_tb ~domains 60_000 in
      check_bool
        (Printf.sprintf "domains=%d outcome totals" domains)
        true
        (r.Testbed.r_outcomes_total = reference.Testbed.r_outcomes_total);
      check_bool
        (Printf.sprintf "domains=%d drop reasons" domains)
        true
        (r.Testbed.r_drop_reasons_total
        = reference.Testbed.r_drop_reasons_total))
    [ 2; 4 ]

let test_testbed_scaling () =
  (* Overloaded, the 4-CPU partition must forward well beyond one CPU. *)
  let r1 = run_tb ~domains:1 2_000_000 in
  let r4 = run_tb ~domains:4 2_000_000 in
  check_bool "4 domains beat 1 under overload" true
    (r4.Testbed.r_forwarded_pps > 1.3 *. r1.Testbed.r_forwarded_pps)

let () =
  Alcotest.run "parallel"
    [
      ( "spsc",
        [
          Alcotest.test_case "fifo and capacity" `Quick test_spsc_fifo;
          Alcotest.test_case "cross domain" `Quick test_spsc_cross_domain;
        ] );
      ( "partition",
        [
          Alcotest.test_case "example invariants" `Quick
            test_partition_examples;
          Alcotest.test_case "trivial at one domain" `Quick
            test_partition_trivial;
          Alcotest.test_case "weighted invariants" `Quick
            test_partition_weighted_invariants;
          Alcotest.test_case "weighted determinism" `Quick
            test_partition_weighted_determinism;
          Alcotest.test_case "weight accounting" `Quick
            test_partition_weight_accounting;
          Alcotest.test_case "weighted balance" `Quick
            test_partition_weighted_balance;
        ] );
      ( "scheduler",
        [ Alcotest.test_case "rotation" `Quick test_rotation_fairness ] );
      ( "pool",
        [
          Alcotest.test_case "domain ownership" `Quick
            test_pool_domain_ownership;
          Alcotest.test_case "cross-domain handoff" `Quick
            test_pool_cross_domain_handoff;
        ] );
      ( "runner",
        [
          Alcotest.test_case "differential" `Quick test_runner_differential;
          Alcotest.test_case "ring-pressure conservation" `Quick
            test_runner_conservation_under_ring_pressure;
        ] );
      ( "testbed",
        [
          Alcotest.test_case "differential" `Quick test_testbed_differential;
          Alcotest.test_case "scaling" `Quick test_testbed_scaling;
        ] );
    ]
