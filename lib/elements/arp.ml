(* ARP handling: ARPQuerier encapsulates IP packets in Ethernet headers,
   resolving the next hop with real ARP queries; ARPResponder answers
   queries for the addresses it is configured with. *)

open Prelude
module Ether = Headers.Ether
module Arp = Headers.Arp

(* Each unresolved address holds a small bounded FIFO of pending
   packets (Click holds one); queries for the same address are
   rate-limited. The whole table is bounded and age-evicted
   (Aged_table), so address scans cost bounded memory, and evicting an
   entry turns its held packets into accounted drops. *)
type arp_entry = {
  mutable ae_eth : Ethaddr.t option;
  ae_pending : Packet.t Queue.t;
  mutable ae_last_query : int;  (* clock ns of last query; -1 = never *)
}

let default_arp_capacity = 512
let default_arp_timeout_ms = 300_000 (* Click's 5-minute entry timeout *)
let default_query_interval_ms = 1_000
let default_pending_cap = 4

class arp_querier name =
  object (self)
    inherit E.base name
    val mutable my_ip = 0
    val mutable my_eth = Ethaddr.zero
    val table : (Ipaddr.t, arp_entry) Aged_table.t = Aged_table.create ()
    val mutable pending_cap = default_pending_cap
    val mutable query_interval_ns = default_query_interval_ms * 1_000_000
    val mutable queries = 0
    val mutable suppressed = 0
    val mutable responses = 0
    val mutable encapsulated = 0
    method class_name = "ARPQuerier"
    method! port_count = "2/1"
    method! processing = "h/h"
    (* IP packets arrive on 0, ARP responses on 1; both leave via 0. *)
    method! flow_code = "xy/x"

    method! set_clock f =
      clock <- f;
      Aged_table.set_clock table f

    method private drop_pending reason e =
      Queue.iter (fun held -> self#drop ~reason held) e.ae_pending;
      Queue.clear e.ae_pending

    method! configure config =
      let positional, keywords = parse_positional_and_keywords config in
      let bad = ref None in
      let int_kw key default ~min =
        match List.assoc_opt key keywords with
        | None -> default
        | Some v -> (
            match Args.parse_int v with
            | Some n when n >= min -> n
            | _ ->
                if !bad = None then
                  bad :=
                    Some
                      (Printf.sprintf "ARPQuerier: bad %s %S (integer >= %d)"
                         key v min);
                default)
      in
      let capacity = int_kw "CAPACITY" default_arp_capacity ~min:0 in
      let timeout_ms = int_kw "TIMEOUT" default_arp_timeout_ms ~min:0 in
      let interval_ms =
        int_kw "QUERY_INTERVAL" default_query_interval_ms ~min:0
      in
      let pcap = int_kw "PENDING" default_pending_cap ~min:1 in
      List.iter
        (fun (k, _) ->
          if
            (not (List.mem k [ "CAPACITY"; "TIMEOUT"; "QUERY_INTERVAL"; "PENDING" ]))
            && !bad = None
          then bad := Some (Printf.sprintf "ARPQuerier: unknown keyword %s" k))
        keywords;
      match !bad with
      | Some msg -> Error msg
      | None -> (
          match positional with
          | [ ip; eth ] -> (
              match (Ipaddr.of_string ip, Ethaddr.of_string eth) with
              | Some ip, Some eth ->
                  my_ip <- ip;
                  my_eth <- eth;
                  Aged_table.set_capacity table capacity;
                  Aged_table.set_max_age_ns table (timeout_ms * 1_000_000);
                  Aged_table.set_on_evict table (fun _ e _why ->
                      self#drop_pending "ARP entry evicted" e);
                  query_interval_ns <- interval_ms * 1_000_000;
                  pending_cap <- pcap;
                  Ok ()
              | _ -> Error "ARPQuerier expects IP, ETH")
          | _ -> Error "ARPQuerier expects IP, ETH")

    (* Per-packet on the datapath: the cache-hit side must not allocate,
       hence [find_exn] rather than [find]. *)
    method private entry ip =
      match Aged_table.find_exn table ip with
      | e -> e
      | exception Not_found ->
          let e =
            { ae_eth = None; ae_pending = Queue.create (); ae_last_query = -1 }
          in
          Aged_table.put table ip e;
          e

    (* Send at most one query per QUERY_INTERVAL per unresolved address:
       under an address scan or ARP storm the querier no longer amplifies
       every data packet into a broadcast. *)
    method private maybe_query e target_ip =
      let now = clock () in
      if
        e.ae_last_query >= 0
        && query_interval_ns > 0
        && now - e.ae_last_query < query_interval_ns
      then suppressed <- suppressed + 1
      else begin
        e.ae_last_query <- now;
        queries <- queries + 1;
        let q =
          Headers.Build.arp_query ~src_eth:my_eth ~src_ip:my_ip ~target_ip
        in
        self#spawn q;
        self#output 0 q
      end

    method private encap_and_send p dst_eth =
      Ether.encap p ~dst:dst_eth ~src:my_eth ~ethertype:Ether.ethertype_ip;
      encapsulated <- encapsulated + 1;
      self#output 0 p

    method! push port p =
      if port = 0 then begin
        (* An IP packet: resolve the destination annotation. *)
        let dst = (Packet.anno p).Packet.dst_ip in
        let e = self#entry dst in
        match e.ae_eth with
        | Some eth -> self#encap_and_send p eth
        | None ->
            (* Hold the packet (bounded FIFO per address; overflow drops
               the oldest so the freshest traffic survives resolution). *)
            if Queue.length e.ae_pending >= pending_cap then
              self#drop ~reason:"ARP pending overflow" (Queue.pop e.ae_pending);
            Queue.push p e.ae_pending;
            self#maybe_query e dst
      end
      else begin
        (* An ARP response: learn, and release any held packets. *)
        responses <- responses + 1;
        (if
           Packet.length p >= Ether.header_length + Arp.packet_length
           && Arp.op ~off:Ether.header_length p = Arp.op_reply
         then begin
           let ip = Arp.sender_ip ~off:Ether.header_length p in
           let eth = Arp.sender_eth ~off:Ether.header_length p in
           let e = self#entry ip in
           e.ae_eth <- Some eth;
           while not (Queue.is_empty e.ae_pending) do
             self#encap_and_send (Queue.pop e.ae_pending) eth
           done
         end);
        (* The response itself (or whatever malformed frame landed on the
           response port) is consumed here either way. *)
        self#drop ~reason:"ARP response consumed" p
      end

    method! push_batch port batch =
      if port <> 0 then
        (* ARP responses are rare control traffic: scalar loop. *)
        let f = self#push port in
        Array.iter (fun p -> self#guard f p) batch
      else begin
        (* Steady-state fast path: every destination already resolved.
           Encapsulate in place and forward the resolved prefix runs in
           batched transfers; unresolved or faulting packets fall back
           to the scalar path (query + hold). *)
        let n = Array.length batch in
        let m = ref 0 in
        let flush () =
          if !m > 0 then begin
            self#output_batch 0 (self#sub_batch batch !m);
            m := 0
          end
        in
        for i = 0 to n - 1 do
          let p = batch.(i) in
          if !quarantined then begin
            flush ();
            self#drop ~reason:"quarantined element" p
          end
          else
            match
              let dst = (Packet.anno p).Packet.dst_ip in
              (self#entry dst).ae_eth
            with
            | Some eth -> (
                match
                  Ether.encap p ~dst:eth ~src:my_eth
                    ~ethertype:Ether.ethertype_ip
                with
                | () ->
                    encapsulated <- encapsulated + 1;
                    consecutive_faults := 0;
                    batch.(!m) <- p;
                    incr m
                | exception e when not (E.fatal e) ->
                    self#record_fault (Printexc.to_string e);
                    self#drop ~reason:"element fault" p)
            | None ->
                (* The held/query path transfers scalar packets of its
                   own, so flush the resolved run first to keep
                   downstream ordering intact. *)
                flush ();
                self#guard (self#push 0) p
            | exception e when not (E.fatal e) ->
                self#record_fault (Printexc.to_string e);
                self#drop ~reason:"element fault" p
        done;
        flush ()
      end

    method! write_handler handler value =
      let int_of v ~min err =
        match Args.parse_int v with
        | Some n when n >= min -> Ok n
        | _ -> Error (Printf.sprintf "%s: %s" name err)
      in
      match handler with
      | "capacity" ->
          Result.map (Aged_table.set_capacity table)
            (int_of value ~min:0 "capacity must be an integer >= 0")
      | "timeout_ms" ->
          Result.map
            (fun ms -> Aged_table.set_max_age_ns table (ms * 1_000_000))
            (int_of value ~min:0 "timeout_ms must be an integer >= 0")
      | "query_interval_ms" ->
          Result.map
            (fun ms -> query_interval_ns <- ms * 1_000_000)
            (int_of value ~min:0 "query_interval_ms must be an integer >= 0")
      | "pending" ->
          Result.map
            (fun n -> pending_cap <- n)
            (int_of value ~min:1 "pending must be an integer >= 1")
      | h -> Error (Printf.sprintf "%s: no write handler %S" name h)

    method! stats =
      (* "pending" is every packet currently held awaiting resolution:
         the testbed's conservation residual counts it, so it must be
         exact. *)
      let pending =
        Aged_table.fold table
          (fun _ e acc -> acc + Queue.length e.ae_pending)
          0
      in
      [
        ("queries", queries);
        ("suppressed", suppressed);
        ("responses", responses);
        ("encapsulated", encapsulated);
        ("cached", Aged_table.length table);
        ("evictions", Aged_table.evicted table);
        ("pending", pending);
      ]
  end

class arp_responder name =
  object (self)
    inherit E.base name
    val mutable entries : (Ipaddr.t * Ipaddr.t * Ethaddr.t) list = []
    val mutable replies = 0
    method class_name = "ARPResponder"

    method! configure config =
      let parse_entry arg =
        let parts = List.filter (( <> ) "") (String.split_on_char ' ' arg) in
        match parts with
        | [ prefix; eth ] -> (
            match (Ipaddr.parse_prefix prefix, Ethaddr.of_string eth) with
            | Some (addr, mask), Some eth -> Some (addr land mask, mask, eth)
            | _ -> None)
        | _ -> None
      in
      let parsed = List.map parse_entry (Args.split config) in
      if parsed = [] || List.exists Option.is_none parsed then
        Error "ARPResponder expects entries of the form \"IP[/MASK] ETH\""
      else begin
        entries <- List.filter_map Fun.id parsed;
        Ok ()
      end

    method private lookup ip =
      List.find_map
        (fun (addr, mask, eth) ->
          if ip land mask = addr then Some eth else None)
        entries

    method! push _ p =
      if
        Packet.length p >= Ether.header_length + Arp.packet_length
        && Headers.Ether.ethertype p = Ether.ethertype_arp
        && Arp.op ~off:Ether.header_length p = Arp.op_request
      then begin
        let target = Arp.target_ip ~off:Ether.header_length p in
        match self#lookup target with
        | Some eth ->
            let reply =
              Headers.Build.arp_reply ~src_eth:eth ~src_ip:target
                ~dst_eth:(Arp.sender_eth ~off:Ether.header_length p)
                ~dst_ip:(Arp.sender_ip ~off:Ether.header_length p)
            in
            replies <- replies + 1;
            self#spawn reply;
            self#output 0 reply;
            self#drop ~reason:"ARP request consumed" p
        | None -> self#drop ~reason:"not my address" p
      end
      else self#drop ~reason:"not an ARP request" p

    method! stats = [ ("replies", replies) ]
  end

let register () =
  def "ARPQuerier" ~ports:"2/1" ~processing:"h/h" ~flow:"xy/x" (fun n ->
      (new arp_querier n :> E.t));
  def "ARPResponder" (fun n -> (new arp_responder n :> E.t))
