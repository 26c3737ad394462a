(* Combination elements (paper §6.2, Fig. 4/6).

   These fuse runs of general-purpose elements into one specialized
   element: fewer packet transfers and specialized code. Router designers
   are discouraged from using them directly — click-xform's patterns
   introduce them automatically (see lib/optim/patterns.ml). *)

open Prelude
module Ip = Headers.Ip

(* IPInputCombo(COLOR, BADADDRS) =
     Paint(COLOR) -> Strip(14) -> CheckIPHeader(BADADDRS) ->
     GetIPAddress(16).
   Output 0: valid IP packets; output 1 (optional): header rejects. *)
class ip_input_combo name =
  object (self)
    inherit E.base name
    val mutable color = 0
    val mutable bad_src : Ipaddr.t list = []
    val mutable drops = 0
    method class_name = "IPInputCombo"
    method! port_count = "1/1-2"
    method! processing = "h/h"

    method! configure config =
      match Args.split config with
      | color_s :: rest -> (
          match (Args.parse_int color_s, rest) with
          | Some c, [] when c >= 0 ->
              color <- c;
              Ok ()
          | Some c, [ addrs ] when c >= 0 -> (
              let parts =
                List.filter (( <> ) "") (String.split_on_char ' ' addrs)
              in
              let parsed = List.map Ipaddr.of_string parts in
              if List.exists Option.is_none parsed then
                Error "IPInputCombo: bad address list"
              else begin
                color <- c;
                bad_src <- List.filter_map Fun.id parsed;
                Ok ()
              end)
          | _ -> Error "IPInputCombo expects COLOR [, BADADDRS]")
      | [] -> Error "IPInputCombo expects COLOR [, BADADDRS]"

    method private header_ok p =
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

    (* The combo's body: paint, pull the link header, check, trim
       padding, extract the address; [false] once a failure diverted
       the packet through output 1 or an accounted drop. *)
    method private pass p =
      let anno = Packet.anno p in
      anno.Packet.paint <- color;
      if Packet.length p < 14 then begin
        self#drop ~reason:"no link header" p;
        false
      end
      else begin
        Packet.pull p 14;
        if self#header_ok p then begin
          let excess = Packet.length p - Ip.total_length p in
          if excess > 0 then Packet.take p excess;
          anno.Packet.dst_ip <- Packet.get_u32 p 16;
          true
        end
        else begin
          drops <- drops + 1;
          if self#noutputs > 1 then self#output 1 p
          else self#drop ~reason:"bad IP header" p;
          false
        end
      end

    method! region_sem =
      (* One guard: the 14-byte pull shifts hoisted downstream tests, and
         the padding trim makes it a barrier. *)
      Some
        (Region.Guard
           {
             gd_shift = 14;
             gd_barrier = true;
             gd_run = (fun p -> self#pass p);
           })

    method! stats = [ ("drops", drops) ]
  end

(* IPOutputCombo(COLOR, IP) =
     DropBroadcasts -> CheckPaint(COLOR) -> IPGWOptions(IP) ->
     FixIPSrc(IP) -> DecIPTTL.
   Outputs: 0 forward, 1 redirect clone, 2 bad options, 3 TTL expired. *)
class ip_output_combo name =
  object (self)
    inherit E.base name
    val mutable color = 0
    val mutable my_addr = 0
    val mutable drops = 0
    method class_name = "IPOutputCombo"
    method! port_count = "1/1-4"
    method! processing = "h/h"

    method! configure config =
      match Args.split config with
      | [ color_s; addr_s ] -> (
          match (Args.parse_int color_s, Ipaddr.of_string addr_s) with
          | Some c, Some a when c >= 0 ->
              color <- c;
              my_addr <- a;
              Ok ()
          | _ -> Error "IPOutputCombo expects COLOR, IP")
      | _ -> Error "IPOutputCombo expects COLOR, IP"

    method private options_ok p hl =
      let rec scan off =
        if off >= hl then true
        else
          match Packet.get_u8 p off with
          | 0 -> true
          | 1 -> scan (off + 1)
          | 7 | 68 ->
              let optlen = if off + 1 < hl then Packet.get_u8 p (off + 1) else 0 in
              if optlen < 2 || off + optlen > hl then false
              else begin
                if not lean_work then
                  self#charge (Hooks.W_custom ("ip-option", optlen));
                scan (off + optlen)
              end
          | _ -> false
      in
      hl = Ip.min_header_length || scan Ip.min_header_length

    method private reject port reason p =
      drops <- drops + 1;
      if port < self#noutputs then self#output port p
      else self#drop ~reason p

    (* The combo's body up to the forward on output 0; [false] once the
       packet was dropped or rejected through a side output. *)
    method private pass p =
      let anno = Packet.anno p in
      match anno.Packet.link_type with
      | Packet.Broadcast | Packet.Multicast ->
          self#drop ~reason:"link-level broadcast" p;
          false
      | Packet.To_host | Packet.To_other ->
          if anno.Packet.paint = color && self#noutputs > 1 then begin
            let c = Packet.clone p in
            self#spawn c;
            self#output 1 c
          end;
          let hl = ip_header_length p in
          if hl < 0 then begin
            self#drop ~reason:too_short_for_ip p;
            false
          end
          else if not (self#options_ok p hl) then begin
            self#reject 2 "bad IP options" p;
            false
          end
          else begin
            if anno.Packet.fix_ip_src then begin
              anno.Packet.fix_ip_src <- false;
              Ip.set_src p my_addr;
              if not lean_work then
                self#charge (Hooks.W_checksum (Ip.header_length p));
              Ip.update_checksum p
            end;
            if Ip.ttl p <= 1 then begin
              self#reject 3 "TTL expired" p;
              false
            end
            else begin
              Ip.decrement_ttl p;
              true
            end
          end

    method! region_sem =
      (* Barrier: the source rewrite and TTL decrement change header
         bytes, so no downstream tree test may be hoisted above this
         stage. *)
      Some
        (Region.Guard
           {
             gd_shift = 0;
             gd_barrier = true;
             gd_run = (fun p -> self#pass p);
           })

    method! stats = [ ("rejects", drops) ]
  end

let register () =
  def "IPInputCombo" ~ports:"1/1-2" ~processing:"h/h" (fun n ->
      (new ip_input_combo n :> E.t));
  def "IPOutputCombo" ~ports:"1/1-4" ~processing:"h/h" (fun n ->
      (new ip_output_combo n :> E.t))
