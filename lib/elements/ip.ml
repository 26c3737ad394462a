(* The IP forwarding-path elements of the paper's Figure 1 router. *)

open Prelude
module Ip = Headers.Ip
module Icmp = Headers.Icmp
module Ether = Headers.Ether

class paint name =
  object (self)
    inherit E.simple_action name
    val mutable color = 0
    method class_name = "Paint"

    method! configure config =
      match Args.parse_int config with
      | Some c when c >= 0 ->
          color <- c;
          self#sem_changed;
          Ok ()
      | _ -> Error "Paint expects a color"

    method private inplace p =
      (Packet.anno p).Packet.paint <- color;
      E.V_keep

    method! region_sem = Some (Region.Set_paint color)
  end

(* CheckPaint (Click's PaintTee): forwards on 0; a painted packet also
   sends a clone to output 1 — the ICMP-redirect path in the IP router. *)
class check_paint name =
  object (self)
    inherit E.simple_action name
    val mutable color = 0
    method class_name = "CheckPaint"
    method! port_count = "1/1-2"
    method! processing = "a/ah"

    method! configure config =
      match Args.parse_int config with
      | Some c when c >= 0 -> Ok (color <- c)
      | _ -> Error "CheckPaint expects a color"

    method private tee p =
      if (Packet.anno p).Packet.paint = color && self#noutputs > 1 then begin
        let c = Packet.clone p in
        self#spawn c;
        self#output 1 c
      end

    method private inplace p =
      self#tee p;
      E.V_keep

    method! region_sem = Some (Region.Mutate (fun p -> self#tee p))
  end

class strip name =
  object (self)
    inherit E.simple_action name
    val mutable nbytes = 0
    method class_name = "Strip"

    method! configure config =
      match Args.parse_int config with
      | Some n when n >= 0 -> Ok (nbytes <- n)
      | _ -> Error "Strip expects a byte count"

    method private inplace p =
      if Packet.length p >= nbytes then begin
        Packet.pull p nbytes;
        E.V_keep
      end
      else begin
        self#drop ~reason:"too short to strip" p;
        E.V_drop
      end

    method! region_sem =
      (* The shift lets the fusion pass translate downstream tree
         offsets: reading [off] after the pull sees the same bytes as
         [off + nbytes] before it (both through the shared zero-fill
         reader), so hoisting those tests above the pull is exact. *)
      Some
        (Region.Guard
           {
             gd_shift = nbytes;
             gd_barrier = false;
             gd_run = (fun p -> self#inplace p = E.V_keep);
           })
  end

class unstrip name =
  object
    inherit E.simple_action name
    val mutable nbytes = 0
    method class_name = "Unstrip"

    method! configure config =
      match Args.parse_int config with
      | Some n when n >= 0 -> Ok (nbytes <- n)
      | _ -> Error "Unstrip expects a byte count"

    method private inplace p =
      Packet.push p nbytes;
      E.V_keep
  end

(* CheckIPHeader: validates version, header length, total length, and the
   header checksum; optionally rejects packets whose source address is in a
   bad-address list. Bad packets go to output 1 if connected, else they
   are dropped — as in Click. *)
class check_ip_header name =
  object (self)
    inherit E.simple_action name
    val mutable bad_src : Ipaddr.t list = []
    val mutable drops = 0
    method class_name = "CheckIPHeader"
    method! port_count = "1/1-2"
    method! processing = "a/ah"

    method! configure config =
      match Args.split config with
      | [] -> Ok ()
      | [ addrs ] -> (
          let parts =
            List.filter (( <> ) "") (String.split_on_char ' ' addrs)
          in
          let parsed = List.map Ipaddr.of_string parts in
          if List.exists Option.is_none parsed then
            Error (Printf.sprintf "CheckIPHeader: bad address list %S" addrs)
          else begin
            bad_src <- List.filter_map Fun.id parsed;
            Ok ()
          end)
      | _ -> Error "CheckIPHeader takes an address list"

    method private check p =
      Packet.length p >= Ip.min_header_length
      && Ip.version p = 4
      && Ip.header_length p >= Ip.min_header_length
      && Ip.header_length p <= Packet.length p
      && Ip.total_length p >= Ip.header_length p
      && Ip.total_length p <= Packet.length p
      && begin
           if not lean_work then
             self#charge (Hooks.W_checksum (Ip.header_length p));
           Ip.checksum_valid p
         end
      && not (List.mem (Ip.src p) bad_src)

    method private handle_bad p =
      drops <- drops + 1;
      if self#noutputs > 1 then self#output 1 p
      else self#drop ~reason:"bad IP header" p

    (* The default sem's barrier is needed here: [Packet.take] trims the
       padding bytes beyond the IP length, so byte tests hoisted from
       below could read trimmed bytes as nonzero that the interpreted walk
       reads as zero-fill. Non-test stages (paint, address extraction, the
       route lookup) still fuse past it. *)
    method private inplace p =
      if self#check p then begin
        (* Trim link-layer padding beyond the IP length, like Click. *)
        let excess = Packet.length p - Ip.total_length p in
        if excess > 0 then Packet.take p excess;
        E.V_keep
      end
      else begin
        self#handle_bad p;
        E.V_drop
      end

    method! stats = [ ("drops", drops) ]
  end

class get_ip_address name =
  object (self)
    inherit E.simple_action name
    val mutable offset = 16
    method class_name = "GetIPAddress"

    method! configure config =
      match Args.parse_int config with
      | Some n when n >= 0 -> Ok (offset <- n)
      | _ -> Error "GetIPAddress expects a byte offset"

    method private inplace p =
      if Packet.length p >= offset + 4 then begin
        (Packet.anno p).Packet.dst_ip <- Packet.get_u32 p offset;
        E.V_keep
      end
      else begin
        self#drop ~reason:"too short for address" p;
        E.V_drop
      end

    method! region_sem =
      Some
        (Region.Guard
           {
             gd_shift = 0;
             gd_barrier = false;
             gd_run = (fun p -> self#inplace p = E.V_keep);
           })
  end

class set_ip_address name =
  object
    inherit E.simple_action name
    val mutable addr = 0
    method class_name = "SetIPAddress"

    method! configure config =
      match Ipaddr.of_string (String.trim config) with
      | Some a -> Ok (addr <- a)
      | None -> Error "SetIPAddress expects an IP address"

    method private inplace p =
      (Packet.anno p).Packet.dst_ip <- addr;
      E.V_keep

    method! region_sem =
      Some (Region.Mutate (fun p -> (Packet.anno p).Packet.dst_ip <- addr))
  end

class drop_broadcasts name =
  object (self)
    inherit E.simple_action name
    val mutable drops = 0
    method class_name = "DropBroadcasts"

    method private inplace p =
      match (Packet.anno p).Packet.link_type with
      | Packet.Broadcast | Packet.Multicast ->
          drops <- drops + 1;
          self#drop ~reason:"link-level broadcast" p;
          E.V_drop
      | Packet.To_host | Packet.To_other -> E.V_keep

    method! stats = [ ("drops", drops) ]
  end

(* IPGWOptions: router handling of IP options. Headers without options
   pass untouched; RR and TS options are accepted (a router would update
   them), anything else is a parameter problem and exits on output 1. *)
class ip_gw_options name =
  object (self)
    inherit E.simple_action name
    val mutable my_addr = 0
    val mutable problems = 0
    method class_name = "IPGWOptions"
    method! port_count = "1/1-2"
    method! processing = "a/ah"

    method! configure config =
      match Ipaddr.of_string (String.trim config) with
      | Some a -> Ok (my_addr <- a)
      | None -> Error "IPGWOptions expects the router's IP address"

    (* Recursion via a method, not an inner [let rec]: an inner closure
       would be allocated per packet even for the optionless common case
       (closure creation is eager, before the short-circuit). *)
    method private scan_options p hl off =
      if off >= hl then true
      else
        match Packet.get_u8 p off with
        | 0 -> true (* end of options *)
        | 1 -> self#scan_options p hl (off + 1) (* no-op *)
        | 7 | 68 ->
            (* record route / timestamp: length-checked skip *)
            let optlen = if off + 1 < hl then Packet.get_u8 p (off + 1) else 0 in
            if optlen < 2 || off + optlen > hl then false
            else begin
              if not lean_work then
                self#charge (Hooks.W_custom ("ip-option", optlen));
              self#scan_options p hl (off + optlen)
            end
        | _ -> false

    method private options_ok p =
      let hl = Ip.header_length p in
      hl = Ip.min_header_length || self#scan_options p hl Ip.min_header_length

    method private inplace p =
      if self#options_ok p then E.V_keep
      else begin
        problems <- problems + 1;
        (if self#noutputs > 1 then self#output 1 p
         else self#drop ~reason:"bad IP options" p);
        E.V_drop
      end

    method! stats = [ ("problems", problems) ]
  end

class fix_ip_src name =
  object (self)
    inherit E.simple_action name
    val mutable my_addr = 0
    method class_name = "FixIPSrc"

    method! configure config =
      match Ipaddr.of_string (String.trim config) with
      | Some a -> Ok (my_addr <- a)
      | None -> Error "FixIPSrc expects the interface's IP address"

    method private inplace p =
      let anno = Packet.anno p in
      if anno.Packet.fix_ip_src then begin
        anno.Packet.fix_ip_src <- false;
        Ip.set_src p my_addr;
        if not lean_work then
          self#charge (Hooks.W_checksum (Ip.header_length p));
        Ip.update_checksum p
      end;
      E.V_keep
  end

class dec_ip_ttl name =
  object (self)
    inherit E.simple_action name
    val mutable expired = 0
    method class_name = "DecIPTTL"
    method! port_count = "1/1-2"
    method! processing = "a/ah"

    method private inplace p =
      if Ip.ttl p <= 1 then begin
        expired <- expired + 1;
        (if self#noutputs > 1 then self#output 1 p
         else self#drop ~reason:"TTL expired" p);
        E.V_drop
      end
      else begin
        Ip.decrement_ttl p;
        E.V_keep
      end

    method! stats = [ ("expired", expired) ]
  end

class ip_fragmenter name =
  object (self)
    inherit E.simple_action name
    val mutable mtu = 1500
    val mutable fragments = 0
    val mutable too_big = 0
    method class_name = "IPFragmenter"
    method! port_count = "1/1-2"
    method! processing = "h/h"

    method! configure config =
      match Args.parse_int config with
      | Some m when m >= 68 -> Ok (mtu <- m)
      | _ -> Error "IPFragmenter expects an MTU of at least 68"

    method private inplace p =
      if Packet.length p <= mtu then E.V_keep
      else if Ip.dont_fragment p then begin
        too_big <- too_big + 1;
        if self#noutputs > 1 then self#output 1 p
        else self#drop ~reason:"DF set and too big" p;
        E.V_drop
      end
      else begin
        (* Split the payload into MTU-sized fragments on 8-byte bounds. *)
        let hl = Ip.header_length p in
        let payload_len = Packet.length p - hl in
        let chunk = (mtu - hl) land lnot 7 in
        let base_frag_off = Ip.fragment_offset p in
        let more_after = Ip.more_fragments p in
        let header = Packet.get_string p ~pos:0 ~len:hl in
        let rec emit off =
          if off < payload_len then begin
            let this_len = min chunk (payload_len - off) in
            let last = off + this_len >= payload_len in
            let frag = Packet.create ~headroom:36 (hl + this_len) in
            Packet.set_string frag ~pos:0 header;
            Packet.set_string frag ~pos:hl
              (Packet.get_string p ~pos:(hl + off) ~len:this_len);
            if not lean_work then self#charge (Hooks.W_copy (hl + this_len));
            Ip.set_total_length frag (hl + this_len);
            Ip.set_flags_fragment frag ~df:false
              ~mf:((not last) || more_after)
              ~frag:(base_frag_off + (off / 8));
            Ip.update_checksum frag;
            let anno = Packet.anno frag and orig = Packet.anno p in
            anno.Packet.dst_ip <- orig.Packet.dst_ip;
            anno.Packet.paint <- orig.Packet.paint;
            anno.Packet.device <- orig.Packet.device;
            fragments <- fragments + 1;
            self#spawn frag;
            self#output 0 frag;
            emit (off + this_len)
          end
        in
        emit 0;
        (* The original is consumed; its payload lives on in the
           fragments, which are accounted as spawns. *)
        self#drop ~reason:"fragmented" p;
        E.V_drop
      end

    method! stats = [ ("fragments", fragments); ("too_big", too_big) ]
  end

(* ICMPError: manufactures an ICMP error packet for the offending packet,
   addressed to its source, and marks it with the Fix-IP-Source annotation
   so FixIPSrc fills in the outgoing interface's address (as in Click). *)
class icmp_error name =
  object (self)
    inherit E.base name
    val mutable my_addr = 0
    val mutable icmp_type = 0
    val mutable icmp_code = 0
    val mutable sent = 0
    method class_name = "ICMPError"

    method! configure config =
      match Args.split config with
      | addr :: type_s :: rest -> (
          match Ipaddr.of_string addr with
          | None -> Error "ICMPError expects an IP address first"
          | Some a -> (
              my_addr <- a;
              let type_v =
                match String.trim type_s with
                | "unreachable" -> Some Icmp.type_dst_unreachable
                | "redirect" -> Some Icmp.type_redirect
                | "timeexceeded" -> Some Icmp.type_time_exceeded
                | "parameterproblem" -> Some Icmp.type_parameter_problem
                | s -> int_of_string_opt s
              in
              let code_v =
                match rest with
                | [] -> Some 0
                | [ code_s ] -> (
                    match String.trim code_s with
                    | "net" -> Some 0
                    | "host" -> Some 1
                    | "protocol" -> Some 2
                    | "port" -> Some 3
                    | "needfrag" -> Some 4
                    | "transittime" -> Some 0
                    | s -> int_of_string_opt s)
                | _ -> None
              in
              match (type_v, code_v) with
              | Some t, Some c ->
                  icmp_type <- t;
                  icmp_code <- c;
                  Ok ()
              | _ -> Error "ICMPError: bad type or code"))
      | _ -> Error "ICMPError expects IP, TYPE [, CODE]"

    method! push _ p =
      (* Do not generate errors about ICMP errors, fragments, broadcasts. *)
      let is_icmp_error =
        Packet.length p >= Ip.min_header_length + 1
        && Ip.protocol p = Ip.proto_icmp
        && Ip.header_length p + 1 <= Packet.length p
        &&
        let t = Packet.get_u8 p (Ip.header_length p) in
        t = Icmp.type_dst_unreachable || t = Icmp.type_time_exceeded
        || t = Icmp.type_parameter_problem || t = Icmp.type_redirect
      in
      if
        Packet.length p < Ip.min_header_length
        || Ip.fragment_offset p > 0
        || is_icmp_error
        || (Packet.anno p).Packet.link_type <> Packet.To_host
      then self#drop ~reason:"no ICMP error for this packet" p
      else begin
        let quoted = min (Ip.header_length p + 8) (Packet.length p) in
        let icmp_len = 8 + quoted in
        let total = Ip.min_header_length + icmp_len in
        (* Headroom of 36 leaves the IP header word-aligned: ARM-safe
           without an Align element (cf. click-align). *)
        let e = Packet.create ~headroom:36 total in
        Ip.write_header e ~src:my_addr ~dst:(Ip.src p) ~protocol:Ip.proto_icmp
          ~total_length:total ();
        let ioff = Ip.min_header_length in
        Icmp.set_type ~off:ioff e icmp_type;
        Icmp.set_code ~off:ioff e icmp_code;
        Packet.set_string e ~pos:(ioff + 8)
          (Packet.get_string p ~pos:0 ~len:quoted);
        Icmp.update_checksum ~off:ioff e ~len:icmp_len;
        if not lean_work then self#charge (Hooks.W_checksum icmp_len);
        let anno = Packet.anno e in
        anno.Packet.dst_ip <- Ip.src p;
        anno.Packet.fix_ip_src <- true;
        sent <- sent + 1;
        self#spawn e;
        self#output 0 e;
        self#drop ~reason:"ICMP error generated" p
      end

    method! stats = [ ("sent", sent) ]
  end

class ether_encap name =
  object
    inherit E.simple_action name
    val mutable ethertype = 0
    val mutable src = Ethaddr.zero
    val mutable dst = Ethaddr.zero
    method class_name = "EtherEncap"

    method! configure config =
      match Args.split config with
      | [ t; s; d ] -> (
          let t = String.trim t in
          let type_v =
            if String.length t > 2 && t.[0] = '0' && (t.[1] = 'x' || t.[1] = 'X')
            then int_of_string_opt t
            else int_of_string_opt ("0x" ^ t)
          in
          match (type_v, Ethaddr.of_string s, Ethaddr.of_string d) with
          | Some t, Some s, Some d ->
              ethertype <- t;
              src <- s;
              dst <- d;
              Ok ()
          | _ -> Error "EtherEncap expects ETHERTYPE, SRC, DST")
      | _ -> Error "EtherEncap expects ETHERTYPE, SRC, DST"

    method private inplace p =
      Ether.encap p ~dst ~src ~ethertype;
      E.V_keep
  end

let register () =
  def "Paint" (fun n -> (new paint n :> E.t));
  def "CheckPaint" ~ports:"1/1-2" ~processing:"a/ah" (fun n ->
      (new check_paint n :> E.t));
  def "PaintTee" ~ports:"1/1-2" ~processing:"a/ah" (fun n ->
      (new check_paint n :> E.t));
  def "Strip" (fun n -> (new strip n :> E.t));
  def "Unstrip" (fun n -> (new unstrip n :> E.t));
  def "CheckIPHeader" ~ports:"1/1-2" ~processing:"a/ah" (fun n ->
      (new check_ip_header n :> E.t));
  def "GetIPAddress" (fun n -> (new get_ip_address n :> E.t));
  def "SetIPAddress" (fun n -> (new set_ip_address n :> E.t));
  def "DropBroadcasts" (fun n -> (new drop_broadcasts n :> E.t));
  def "IPGWOptions" ~ports:"1/1-2" ~processing:"a/ah" (fun n ->
      (new ip_gw_options n :> E.t));
  def "FixIPSrc" (fun n -> (new fix_ip_src n :> E.t));
  def "DecIPTTL" ~ports:"1/1-2" ~processing:"a/ah" (fun n ->
      (new dec_ip_ttl n :> E.t));
  def "IPFragmenter" ~ports:"1/1-2" ~processing:"h/h" (fun n ->
      (new ip_fragmenter n :> E.t));
  def "ICMPError" (fun n -> (new icmp_error n :> E.t));
  def "EtherEncap" (fun n -> (new ether_encap n :> E.t))
