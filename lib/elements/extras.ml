(* Scheduling, switching, and encapsulation elements beyond the Figure 1
   router's needs — the rest of a practical Click element library. *)

open Prelude
module Ip = Headers.Ip
module Ether = Headers.Ether
module Icmp = Headers.Icmp
module Udp = Headers.Udp

(* PrioSched: a pull scheduler; input 0 has strict priority. *)
class prio_sched name =
  object (self)
    inherit E.base name
    method class_name = "PrioSched"
    method! port_count = "-/1"
    method! processing = "l/l"

    method! pull _ =
      let rec try_input i =
        if i >= self#ninputs then None
        else
          match self#input_pull i with
          | Some p -> Some p
          | None -> try_input (i + 1)
      in
      try_input 0
  end

(* RoundRobinSched: a pull scheduler that rotates among its inputs. *)
class round_robin_sched name =
  object (self)
    inherit E.base name
    val mutable next = 0
    method class_name = "RoundRobinSched"
    method! port_count = "-/1"
    method! processing = "l/l"

    method! pull _ =
      let n = self#ninputs in
      let rec try_from k =
        if k >= n then None
        else
          let i = (next + k) mod n in
          match self#input_pull i with
          | Some p ->
              next <- (i + 1) mod n;
              Some p
          | None -> try_from (k + 1)
      in
      if n = 0 then None else try_from 0
  end

(* RoundRobinSwitch: pushes successive packets to successive outputs. *)
class round_robin_switch name =
  object (self)
    inherit E.base name
    val mutable next = 0
    method class_name = "RoundRobinSwitch"
    method! port_count = "1/1-"
    method! processing = "h/h"

    method! push _ p =
      let n = self#noutputs in
      if n = 0 then self#drop ~reason:"no outputs" p
      else begin
        let out = next mod n in
        next <- (next + 1) mod n;
        self#output out p
      end
  end

(* HashSwitch(OFFSET, LENGTH): route by a hash of packet bytes, so one
   flow always takes one path. *)
class hash_switch name =
  object (self)
    inherit E.base name
    val mutable offset = 0
    val mutable length = 4
    method class_name = "HashSwitch"
    method! port_count = "1/1-"
    method! processing = "h/h"

    method! configure config =
      match Args.split config with
      | [ o; l ] -> (
          match (Args.parse_int o, Args.parse_int l) with
          | Some o, Some l when o >= 0 && l > 0 ->
              offset <- o;
              length <- l;
              Ok ()
          | _ -> Error "HashSwitch expects OFFSET, LENGTH")
      | _ -> Error "HashSwitch expects OFFSET, LENGTH"

    method! push _ p =
      let n = self#noutputs in
      if n = 0 then self#drop ~reason:"no outputs" p
      else begin
        let h = ref 5381 in
        for i = offset to min (offset + length) (Packet.length p) - 1 do
          h := ((!h lsl 5) + !h + Packet.get_u8 p i) land 0x3fffffff
        done;
        self#output (!h mod n) p
      end
  end

(* FrontDropQueue: like Queue, but a full queue drops its *oldest* packet
   to admit the new one — fresher data wins. *)
class front_drop_queue name =
  object (self)
    inherit E.base name
    val q : Packet.t Queue.t = Queue.create ()
    val mutable capacity = 1000
    val mutable drops = 0
    method class_name = "FrontDropQueue"
    method! processing = "h/l"

    method! configure config =
      match Args.split config with
      | [] -> Ok ()
      | [ n ] -> (
          match Args.parse_int n with
          | Some c when c > 0 ->
              capacity <- c;
              Ok ()
          | _ -> Error "bad FrontDropQueue capacity")
      | _ -> Error "FrontDropQueue takes at most one argument"

    method! push _ p =
      if not lean_work then self#charge Hooks.W_queue;
      if Queue.length q >= capacity then begin
        let old = Queue.pop q in
        drops <- drops + 1;
        self#drop ~reason:"queue full" old
      end;
      Queue.add p q

    method! pull _ =
      if not lean_work then self#charge Hooks.W_queue;
      Queue.take_opt q

    method! stats =
      [ ("length", Queue.length q); ("capacity", capacity); ("drops", drops) ]
  end

(* CheckLength(MAX): packets longer than MAX leave via output 1 (or are
   dropped). *)
class check_length name =
  object (self)
    inherit E.base name
    val mutable max_len = 1500
    method class_name = "CheckLength"
    method! port_count = "1/1-2"
    method! processing = "a/ah"

    method! configure config =
      match Args.parse_int config with
      | Some n when n >= 0 -> Ok (max_len <- n)
      | _ -> Error "CheckLength expects a maximum length"

    method private route p =
      if Packet.length p <= max_len then Some p
      else begin
        if self#noutputs > 1 then self#output 1 p
        else self#drop ~reason:"too long" p;
        None
      end

    method! push _ p =
      match self#route p with Some p -> self#output 0 p | None -> ()

    method! pull _ =
      match self#input_pull 0 with
      | Some p -> self#route p
      | None -> None
  end

(* IPEncap(PROTO, SRC, DST): prepend a fresh IP header. *)
class ip_encap name =
  object (self)
    inherit E.simple_action name
    val mutable proto = 4
    val mutable src = 0
    val mutable dst = 0
    val mutable ident = 0
    method class_name = "IPEncap"

    method! configure config =
      match Args.split config with
      | [ proto_s; src_s; dst_s ] -> (
          match
            (Args.parse_int proto_s, Ipaddr.of_string src_s, Ipaddr.of_string dst_s)
          with
          | Some pr, Some s, Some d when pr >= 0 && pr <= 255 ->
              proto <- pr;
              src <- s;
              dst <- d;
              Ok ()
          | _ -> Error "IPEncap expects PROTO, SRC, DST")
      | _ -> Error "IPEncap expects PROTO, SRC, DST"

    method private inplace p =
      Packet.push p Ip.min_header_length;
      Ip.write_header p ~src ~dst ~protocol:proto
        ~total_length:(Packet.length p) ~ident ();
      ident <- (ident + 1) land 0xffff;
      (Packet.anno p).Packet.dst_ip <- dst;
      if not lean_work then
        self#charge (Hooks.W_checksum Ip.min_header_length);
      E.V_keep
  end

(* UDPIPEncap(SRC, SPORT, DST, DPORT): prepend UDP and IP headers. *)
class udp_ip_encap name =
  object (self)
    inherit E.simple_action name
    val mutable src = 0
    val mutable sport = 0
    val mutable dst = 0
    val mutable dport = 0
    val mutable ident = 0
    method class_name = "UDPIPEncap"

    method! configure config =
      match Args.split config with
      | [ src_s; sport_s; dst_s; dport_s ] -> (
          match
            ( Ipaddr.of_string src_s,
              Args.parse_int sport_s,
              Ipaddr.of_string dst_s,
              Args.parse_int dport_s )
          with
          | Some s, Some sp, Some d, Some dp
            when sp >= 0 && sp < 65536 && dp >= 0 && dp < 65536 ->
              src <- s;
              sport <- sp;
              dst <- d;
              dport <- dp;
              Ok ()
          | _ -> Error "UDPIPEncap expects SRC, SPORT, DST, DPORT")
      | _ -> Error "UDPIPEncap expects SRC, SPORT, DST, DPORT"

    method private inplace p =
      let payload = Packet.length p in
      Packet.push p Udp.header_length;
      Udp.set_src_port p sport;
      Udp.set_dst_port p dport;
      Udp.set_udp_length p (Udp.header_length + payload);
      Packet.set_u16 p 6 0 (* checksum optional in IPv4 *);
      Packet.push p Ip.min_header_length;
      Ip.write_header p ~src ~dst ~protocol:Ip.proto_udp
        ~total_length:(Packet.length p) ~ident ();
      ident <- (ident + 1) land 0xffff;
      (Packet.anno p).Packet.dst_ip <- dst;
      if not lean_work then
        self#charge (Hooks.W_checksum Ip.min_header_length);
      E.V_keep
  end

(* EtherMirror: swap the Ethernet source and destination. *)
class ether_mirror name =
  object (self)
    inherit E.simple_action name
    method class_name = "EtherMirror"

    method private inplace p =
      if Packet.length p >= Ether.header_length then begin
        let d = Ether.dst p and s = Ether.src p in
        Ether.set_dst p s;
        Ether.set_src p d;
        E.V_keep
      end
      else begin
        self#drop ~reason:"no link header" p;
        E.V_drop
      end
  end

(* ICMPPingResponder: answer ICMP echo requests (packets start at the IP
   header); everything else passes to output 1 or is dropped. *)
class icmp_ping_responder name =
  object (self)
    inherit E.base name
    val mutable replies = 0
    method class_name = "ICMPPingResponder"
    method! port_count = "1/1-2"
    method! processing = "h/h"

    method private is_echo_request p =
      Packet.length p >= Ip.min_header_length + 8
      && Ip.protocol p = Ip.proto_icmp
      && Ip.fragment_offset p = 0
      && Icmp.icmp_type ~off:(Ip.header_length p) p = Icmp.type_echo

    method! push _ p =
      if self#is_echo_request p then begin
        let hl = Ip.header_length p in
        let s = Ip.src p and d = Ip.dst p in
        Ip.set_src p d;
        Ip.set_dst p s;
        Ip.set_ttl p 64;
        Ip.update_checksum p;
        Icmp.set_type ~off:hl p Icmp.type_echo_reply;
        Icmp.update_checksum ~off:hl p ~len:(Packet.length p - hl);
        (Packet.anno p).Packet.dst_ip <- s;
        if not lean_work then
          self#charge (Hooks.W_checksum (Packet.length p));
        replies <- replies + 1;
        self#output 0 p
      end
      else if self#noutputs > 1 then self#output 1 p
      else self#drop ~reason:"not an echo request" p

    method! stats = [ ("replies", replies) ]
  end

(* HostEtherFilter(ETH): keep frames addressed to us (or broadcast /
   multicast); others leave via output 1 or are dropped. *)
class host_ether_filter name =
  object (self)
    inherit E.base name
    val mutable my_eth = Ethaddr.zero
    val mutable dropped = 0
    method class_name = "HostEtherFilter"
    method! port_count = "1/1-2"
    method! processing = "h/h"

    method! configure config =
      match Ethaddr.of_string (String.trim config) with
      | Some e -> Ok (my_eth <- e)
      | None -> Error "HostEtherFilter expects an Ethernet address"

    method! push _ p =
      if Packet.length p < Ether.header_length then
        self#drop ~reason:"no link header" p
      else begin
        let d = Ether.dst p in
        if Ethaddr.equal d my_eth || Ethaddr.is_broadcast d || Ethaddr.is_group d
        then self#output 0 p
        else begin
          dropped <- dropped + 1;
          if self#noutputs > 1 then self#output 1 p
          else self#drop ~reason:"not for this host" p
        end
      end

    method! stats = [ ("filtered", dropped) ]
  end

let register () =
  def "PrioSched" ~ports:"-/1" ~processing:"l/l" (fun n ->
      (new prio_sched n :> E.t));
  def "RoundRobinSched" ~ports:"-/1" ~processing:"l/l" (fun n ->
      (new round_robin_sched n :> E.t));
  def "RoundRobinSwitch" ~ports:"1/1-" ~processing:"h/h" (fun n ->
      (new round_robin_switch n :> E.t));
  def "HashSwitch" ~ports:"1/1-" ~processing:"h/h" (fun n ->
      (new hash_switch n :> E.t));
  def "FrontDropQueue" ~ports:"1/1" ~processing:"h/l" (fun n ->
      (new front_drop_queue n :> E.t));
  def "CheckLength" ~ports:"1/1-2" ~processing:"a/ah" (fun n ->
      (new check_length n :> E.t));
  def "IPEncap" (fun n -> (new ip_encap n :> E.t));
  def "UDPIPEncap" (fun n -> (new udp_ip_encap n :> E.t));
  def "EtherMirror" (fun n -> (new ether_mirror n :> E.t));
  def "ICMPPingResponder" ~ports:"1/1-2" ~processing:"h/h" (fun n ->
      (new icmp_ping_responder n :> E.t));
  def "HostEtherFilter" ~ports:"1/1-2" ~processing:"h/h" (fun n ->
      (new host_ether_filter n :> E.t))
