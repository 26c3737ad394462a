(* Tests for the packet library: buffers, headers, checksums, addresses. *)

module Packet = Oclick_packet.Packet
module Headers = Oclick_packet.Headers
module Checksum = Oclick_packet.Checksum
module Ipaddr = Oclick_packet.Ipaddr
module Ethaddr = Oclick_packet.Ethaddr

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* --- addresses --------------------------------------------------------- *)

let test_ipaddr_parse () =
  check "10.0.0.1" 0x0a000001 (Ipaddr.of_string_exn "10.0.0.1");
  check "255.255.255.255" 0xffffffff (Ipaddr.of_string_exn "255.255.255.255");
  check "0.0.0.0" 0 (Ipaddr.of_string_exn "0.0.0.0");
  check_bool "reject short" true (Ipaddr.of_string "10.0.0" = None);
  check_bool "reject big octet" true (Ipaddr.of_string "10.0.0.256" = None);
  check_bool "reject text" true (Ipaddr.of_string "ten.0.0.1" = None);
  check_bool "reject empty octet" true (Ipaddr.of_string "10..0.1" = None)

let test_ipaddr_print () =
  check_str "round trip" "192.168.1.77"
    (Ipaddr.to_string (Ipaddr.of_string_exn "192.168.1.77"))

let test_netmask () =
  check "/24" 0xffffff00 (Ipaddr.netmask_of_prefix_length 24);
  check "/0" 0 (Ipaddr.netmask_of_prefix_length 0);
  check "/32" 0xffffffff (Ipaddr.netmask_of_prefix_length 32);
  check_bool "inverse 24" true
    (Ipaddr.prefix_length_of_netmask 0xffffff00 = Some 24);
  check_bool "non contiguous" true
    (Ipaddr.prefix_length_of_netmask 0xff00ff00 = None)

let test_prefix_parse () =
  (match Ipaddr.parse_prefix "10.0.0.0/8" with
  | Some (a, m) ->
      check "addr" 0x0a000000 a;
      check "mask" 0xff000000 m
  | None -> Alcotest.fail "10.0.0.0/8 should parse");
  (match Ipaddr.parse_prefix "10.0.0.0/255.0.0.0" with
  | Some (_, m) -> check "explicit mask" 0xff000000 m
  | None -> Alcotest.fail "explicit mask should parse");
  match Ipaddr.parse_prefix "10.1.2.3" with
  | Some (_, m) -> check "host mask" 0xffffffff m
  | None -> Alcotest.fail "bare address should parse"

let test_in_subnet () =
  let net = Ipaddr.of_string_exn "10.0.4.0"
  and mask = Ipaddr.netmask_of_prefix_length 24 in
  check_bool "inside" true
    (Ipaddr.in_subnet (Ipaddr.of_string_exn "10.0.4.77") ~net ~mask);
  check_bool "outside" false
    (Ipaddr.in_subnet (Ipaddr.of_string_exn "10.0.5.77") ~net ~mask)

let test_multicast () =
  check_bool "224.0.0.1" true (Ipaddr.is_multicast (Ipaddr.of_string_exn "224.0.0.1"));
  check_bool "239.1.2.3" true (Ipaddr.is_multicast (Ipaddr.of_string_exn "239.1.2.3"));
  check_bool "10.0.0.1" false (Ipaddr.is_multicast (Ipaddr.of_string_exn "10.0.0.1"))

let test_ethaddr () =
  let a = Ethaddr.of_string_exn "00:e0:98:09:ab:af" in
  check_str "round trip" "00:e0:98:09:ab:af" (Ethaddr.to_string a);
  check_bool "broadcast" true (Ethaddr.is_broadcast Ethaddr.broadcast);
  check_bool "not broadcast" false (Ethaddr.is_broadcast a);
  check_bool "group bit" true
    (Ethaddr.is_group (Ethaddr.of_string_exn "01:00:5e:00:00:01"));
  check_bool "unicast" false (Ethaddr.is_group a);
  check_bool "reject 5 parts" true (Ethaddr.of_string "00:11:22:33:44" = None);
  check_bool "reject text" true (Ethaddr.of_string "zz:11:22:33:44:55" = None)

(* --- packet buffers ----------------------------------------------------- *)

let test_create () =
  let p = Packet.create 64 in
  check "length" 64 (Packet.length p);
  check "byte zero" 0 (Packet.get_u8 p 0);
  check "byte last" 0 (Packet.get_u8 p 63)

let test_push_pull () =
  let p = Packet.of_string "abcdef" in
  Packet.pull p 2;
  check "after pull" 4 (Packet.length p);
  check_str "data" "cdef" (Packet.to_string p);
  Packet.push p 2;
  check "after push" 6 (Packet.length p);
  (* pushed bytes are whatever was there; the window is restored *)
  check_str "tail intact" "cdef" (Packet.get_string p ~pos:2 ~len:4)

let test_push_beyond_headroom () =
  let p = Packet.of_string ~headroom:2 "xy" in
  Packet.push p 40 (* must reallocate *);
  check "grown" 42 (Packet.length p);
  check_str "tail survives" "xy" (Packet.get_string p ~pos:40 ~len:2)

let test_put_take () =
  let p = Packet.of_string "ab" in
  Packet.put p 3;
  check "put" 5 (Packet.length p);
  check "zero filled" 0 (Packet.get_u8 p 4);
  Packet.take p 4;
  check "take" 1 (Packet.length p);
  check_str "left" "a" (Packet.to_string p)

let test_bounds () =
  let p = Packet.create 4 in
  Alcotest.check_raises "read past end"
    (Invalid_argument "Packet: access at 2 width 4 beyond length 4")
    (fun () -> ignore (Packet.get_u32 p 2));
  Alcotest.check_raises "pull too much"
    (Invalid_argument "Packet.pull") (fun () -> Packet.pull p 5)

let test_u16_u32 () =
  let p = Packet.create 8 in
  Packet.set_u16 p 0 0xbeef;
  check "u16" 0xbeef (Packet.get_u16 p 0);
  check "high byte" 0xbe (Packet.get_u8 p 0);
  Packet.set_u32 p 4 0xdeadbeef;
  check "u32" 0xdeadbeef (Packet.get_u32 p 4);
  check "u32 low byte" 0xef (Packet.get_u8 p 7)

let test_clone_independent () =
  let p = Packet.of_string "hello" in
  (Packet.anno p).Packet.paint <- 7;
  let q = Packet.clone p in
  Packet.set_u8 q 0 Char.(code 'H');
  (Packet.anno q).Packet.paint <- 9;
  check_str "original data" "hello" (Packet.to_string p);
  check "original paint" 7 (Packet.anno p).Packet.paint;
  check "clone paint" 9 (Packet.anno q).Packet.paint

let test_realign () =
  let p = Packet.of_string "0123456789abcdef" in
  Packet.realign p ~modulus:4 ~offset:1;
  check "alignment" 1 (Packet.data_offset p mod 4);
  check_str "data preserved" "0123456789abcdef" (Packet.to_string p);
  Packet.realign p ~modulus:4 ~offset:0;
  check "realigned" 0 (Packet.data_offset p mod 4);
  check_str "data still preserved" "0123456789abcdef" (Packet.to_string p)

(* --- checksum ------------------------------------------------------------ *)

let test_checksum_rfc1071 () =
  (* The classic example from RFC 1071 §3. *)
  let data = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  let sum = Checksum.ones_complement_sum data ~pos:0 ~len:8 in
  check "rfc1071 sum" 0xddf2 sum

let test_checksum_odd () =
  let data = Bytes.of_string "\x01\x02\x03" in
  (* 0102 + 0300 = 0402 *)
  check "odd pad" 0x0402 (Checksum.ones_complement_sum data ~pos:0 ~len:3)

let test_checksum_verify () =
  let p = Packet.create 20 in
  Headers.Ip.write_header p ~src:0x0a000001 ~dst:0x0a000002 ~protocol:17
    ~total_length:20 ();
  check_bool "fresh header valid" true (Headers.Ip.checksum_valid p);
  Packet.set_u8 p 8 7 (* corrupt the TTL *);
  check_bool "corrupt header invalid" false (Headers.Ip.checksum_valid p)

let test_checksum_combine () =
  let data = Bytes.of_string "\x12\x34\x56\x78" in
  let whole = Checksum.ones_complement_sum data ~pos:0 ~len:4 in
  let a = Checksum.ones_complement_sum data ~pos:0 ~len:2
  and b = Checksum.ones_complement_sum data ~pos:2 ~len:2 in
  check "combine" whole (Checksum.combine a b)

(* --- packet pool --------------------------------------------------------- *)

let test_pool_alloc_fresh () =
  let pool = Packet.Pool.create () in
  let p = Packet.Pool.alloc pool 64 in
  check "length" 64 (Packet.length p);
  check "zeroed" 0 (Packet.get_u8 p 63);
  let st = Packet.Pool.stats pool in
  check "allocs" 1 st.Packet.Pool.st_allocs;
  check "reuses" 0 st.Packet.Pool.st_reuses;
  check "free" 0 st.Packet.Pool.st_free

let test_pool_recycle_reuse () =
  let pool = Packet.Pool.create () in
  let p = Packet.Pool.alloc pool 32 in
  Packet.set_u8 p 0 0xff;
  Packet.Pool.recycle pool p;
  check "free after recycle" 1 (Packet.Pool.stats pool).Packet.Pool.st_free;
  let q = Packet.Pool.alloc pool 32 in
  check "reuses" 1 (Packet.Pool.stats pool).Packet.Pool.st_reuses;
  check "length" 32 (Packet.length q);
  (* the data window is re-zeroed on reuse, like a fresh create *)
  check "rezeroed" 0 (Packet.get_u8 q 0);
  check "free drained" 0 (Packet.Pool.stats pool).Packet.Pool.st_free

let test_pool_double_recycle_is_noop () =
  let pool = Packet.Pool.create () in
  let p = Packet.Pool.alloc pool 16 in
  Packet.Pool.recycle pool p;
  Packet.Pool.recycle pool p;
  let st = Packet.Pool.stats pool in
  check "only one free entry" 1 st.Packet.Pool.st_free;
  check "second recycle rejected" 1 st.Packet.Pool.st_rejected

let test_pool_capacity_bound () =
  let pool = Packet.Pool.create ~capacity:1 () in
  let p = Packet.Pool.alloc pool 16 and q = Packet.Pool.alloc pool 16 in
  Packet.Pool.recycle pool p;
  Packet.Pool.recycle pool q;
  let st = Packet.Pool.stats pool in
  check "capacity respected" 1 st.Packet.Pool.st_free;
  check "overflow rejected" 1 st.Packet.Pool.st_rejected

let test_pool_copy_on_recycle () =
  (* A clone taken before recycling must not observe the buffer being
     reused: clone deep-copies, so no live packet shares a recycled
     buffer (the copy-on-recycle policy). *)
  let pool = Packet.Pool.create () in
  let p = Packet.Pool.alloc pool 8 in
  Packet.set_u8 p 0 0xaa;
  let held = Packet.clone p in
  Packet.Pool.recycle pool p;
  let q = Packet.Pool.alloc pool 8 in
  Packet.set_u8 q 0 0x55;
  check "held clone unaffected" 0xaa (Packet.get_u8 held 0)

let test_pool_grows_small_buffer () =
  let pool = Packet.Pool.create () in
  let p = Packet.Pool.alloc pool 8 in
  Packet.Pool.recycle pool p;
  let q = Packet.Pool.alloc pool 512 in
  check "reused and grown" 512 (Packet.length q);
  check "grown buffer zeroed" 0 (Packet.get_u8 q 511);
  check "still counts as reuse" 1
    (Packet.Pool.stats pool).Packet.Pool.st_reuses

let zeroed p = String.for_all (fun c -> c = '\000') (Packet.to_string p)

(* Mixed frame sizes share one size class: after the first round
   creates the descriptors, every request is served by a recycled one
   with the buffer it already has. The free list is LIFO, so each round
   hands every descriptor a request of a different size than it served
   last round. *)
let test_pool_imix_reuse () =
  let pool = Packet.Pool.create ~capacity:64 () in
  let sizes = [| 64; 576; 1500 |] in
  let templates =
    Array.map (fun n -> Packet.of_string (String.make n 'x')) sizes
  in
  let burst = Array.make 32 (Packet.create 0) in
  let class_sized = ref true in
  let round () =
    for i = 0 to 31 do
      let len = sizes.(i mod 3) in
      let p = Packet.Pool.alloc pool len in
      Packet.blit ~src:templates.(i mod 3) ~src_pos:0 ~dst:p ~dst_pos:0 ~len;
      if Packet.headroom p + len + Packet.tailroom p <> Packet.Pool.buf_size
      then class_sized := false;
      burst.(i) <- p
    done;
    for i = 0 to 31 do
      Packet.Pool.recycle pool burst.(i)
    done
  in
  round ();
  let allocs = (Packet.Pool.stats pool).Packet.Pool.st_allocs in
  let rounds = 100 in
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do round () done;
  let words = (Gc.minor_words () -. w0) /. float_of_int (rounds * 32) in
  let st = Packet.Pool.stats pool in
  check_bool "every buffer is the size class" true !class_sized;
  check "no fresh descriptors once warm" allocs st.Packet.Pool.st_allocs;
  check "no buffer beyond the size class" 0 st.Packet.Pool.st_heap_bufs;
  check_bool
    (Printf.sprintf "%.3f minor words per cycle <= 0.5" words)
    true (words <= 0.5)

(* Beyond the size class a request gets a buffer of its own, whether the
   descriptor is fresh or recycled. *)
let test_pool_oversize_request () =
  let pool = Packet.Pool.create () in
  let len = Packet.Pool.buf_size + 100 in
  let p = Packet.Pool.alloc pool len in
  check "length" len (Packet.length p);
  check_bool "zeroed" true (zeroed p);
  let r = Packet.Pool.alloc pool 64 in
  for i = 0 to 63 do Packet.set_u8 r i 0xff done;
  Packet.Pool.recycle pool r;
  let q = Packet.Pool.alloc pool len in
  check_bool "recycled descriptor served" true (q == r);
  check "regrown length" len (Packet.length q);
  check_bool "regrown window zeroed" true (zeroed q);
  check "both counted beyond the size class" 2
    (Packet.Pool.stats pool).Packet.Pool.st_heap_bufs

(* A buffer below the size class (here a [Packet.create]d one, as an
   ICMP error would be) is not taken back, so a later large request
   gets a class buffer instead of displacing it. *)
let test_pool_small_buffer_refused () =
  let pool = Packet.Pool.create () in
  let p = Packet.create 20 in
  for i = 0 to 19 do Packet.set_u8 p i 0xff done;
  Packet.Pool.recycle pool p;
  let st = Packet.Pool.stats pool in
  check "refused" 1 st.Packet.Pool.st_rejected;
  check "free list empty" 0 st.Packet.Pool.st_free;
  let q = Packet.Pool.alloc pool 1500 in
  check_bool "fresh descriptor" false (p == q);
  check "length" 1500 (Packet.length q);
  check_bool "whole window zeroed" true (zeroed q);
  check "class buffer, not counted" 0
    (Packet.Pool.stats pool).Packet.Pool.st_heap_bufs

(* --- headers ------------------------------------------------------------- *)

let test_ether_encap () =
  let p = Packet.of_string "payload" in
  let src = Ethaddr.of_string_exn "00:00:c0:00:00:01"
  and dst = Ethaddr.of_string_exn "00:00:c0:00:00:02" in
  Headers.Ether.encap p ~dst ~src ~ethertype:0x0800;
  check "length" (7 + 14) (Packet.length p);
  check "ethertype" 0x0800 (Headers.Ether.ethertype p);
  check_bool "dst" true (Ethaddr.equal dst (Headers.Ether.dst p));
  check_bool "src" true (Ethaddr.equal src (Headers.Ether.src p))

let test_ip_fields () =
  let p = Packet.create 20 in
  Headers.Ip.write_header p ~src:1 ~dst:2 ~protocol:6 ~total_length:20
    ~ttl:9 ~tos:3 ~ident:77 ();
  check "version" 4 (Headers.Ip.version p);
  check "hl" 20 (Headers.Ip.header_length p);
  check "ttl" 9 (Headers.Ip.ttl p);
  check "tos" 3 (Headers.Ip.tos p);
  check "ident" 77 (Headers.Ip.ident p);
  check "proto" 6 (Headers.Ip.protocol p);
  check "src" 1 (Headers.Ip.src p);
  check "dst" 2 (Headers.Ip.dst p);
  check_bool "df" false (Headers.Ip.dont_fragment p)

let test_decrement_ttl_checksum () =
  let p = Packet.create 20 in
  Headers.Ip.write_header p ~src:0xc0a80101 ~dst:0x08080808 ~protocol:17
    ~total_length:20 ~ttl:64 ();
  for expected = 63 downto 1 do
    Headers.Ip.decrement_ttl p;
    Alcotest.(check int) "ttl" expected (Headers.Ip.ttl p);
    Alcotest.(check bool) "incremental checksum stays valid" true
      (Headers.Ip.checksum_valid p)
  done

let test_fragment_fields () =
  let p = Packet.create 20 in
  Headers.Ip.write_header p ~src:1 ~dst:2 ~protocol:17 ~total_length:20 ();
  Headers.Ip.set_flags_fragment p ~df:true ~mf:false ~frag:0;
  check_bool "df set" true (Headers.Ip.dont_fragment p);
  Headers.Ip.set_flags_fragment p ~df:false ~mf:true ~frag:185;
  check_bool "mf set" true (Headers.Ip.more_fragments p);
  check "frag offset" 185 (Headers.Ip.fragment_offset p)

let test_build_udp_is_64_bytes () =
  (* 14 ether + 20 IP + 8 UDP + 14 payload = 56 in memory; the wire adds
     the 4-byte CRC and pads to Ethernet's 64-byte minimum (paper §8.1:
     "Each 64-byte UDP packet includes Ethernet, IP, and UDP headers as
     well as 14 bytes of data and the 4-byte Ethernet CRC"). *)
  let p = Headers.Build.udp ~src_ip:1 ~dst_ip:2 () in
  check "frame bytes (sans CRC)" 56 (Packet.length p);
  check "ethertype" 0x0800 (Headers.Ether.ethertype p);
  check_bool "ip valid" true (Headers.Ip.checksum_valid ~off:14 p);
  check "udp dst port" 1234 (Headers.Udp.dst_port ~off:34 p)

let test_build_arp () =
  let src_eth = Ethaddr.of_string_exn "00:11:22:33:44:55" in
  let q = Headers.Build.arp_query ~src_eth ~src_ip:0x0a000001 ~target_ip:0x0a000002 in
  check "ethertype" 0x0806 (Headers.Ether.ethertype q);
  check_bool "to broadcast" true
    (Ethaddr.is_broadcast (Headers.Ether.dst q));
  check "op" 1 (Headers.Arp.op ~off:14 q);
  check "target" 0x0a000002 (Headers.Arp.target_ip ~off:14 q);
  let r =
    Headers.Build.arp_reply ~src_eth ~src_ip:0x0a000002
      ~dst_eth:(Ethaddr.of_string_exn "00:11:22:33:44:66")
      ~dst_ip:0x0a000001
  in
  check "reply op" 2 (Headers.Arp.op ~off:14 r);
  check "sender ip" 0x0a000002 (Headers.Arp.sender_ip ~off:14 r)

let test_tcp_flags () =
  let p =
    Headers.Build.tcp ~src_ip:1 ~dst_ip:2 ~src_port:5 ~dst_port:80
      ~flags:Headers.Tcp.(flag_syn lor flag_ack) ()
  in
  let off = 34 in
  check "flags" 0x12 (Headers.Tcp.flags ~off p);
  check "dst port" 80 (Headers.Tcp.dst_port ~off p)

(* --- properties ----------------------------------------------------------- *)

let prop_pull_push_inverse =
  QCheck.Test.make ~name:"pull then push restores the window"
    ~count:200
    QCheck.(pair (string_of_size (Gen.int_range 1 64)) (int_bound 63))
    (fun (data, n) ->
      QCheck.assume (String.length data > 0);
      let n = n mod String.length data in
      let p = Packet.of_string data in
      Packet.pull p n;
      Packet.push p n;
      Packet.to_string p = data)

let prop_checksum_update_valid =
  QCheck.Test.make ~name:"update_checksum always validates" ~count:200
    QCheck.(quad small_nat small_nat small_nat small_nat)
    (fun (a, b, c, d) ->
      let p = Packet.create 20 in
      Headers.Ip.write_header p
        ~src:(a * 7919 mod 0xffffffff)
        ~dst:(b * 104729 mod 0xffffffff)
        ~protocol:(c mod 256) ~total_length:20 ~ttl:(1 + (d mod 255)) ();
      Headers.Ip.checksum_valid p)

let prop_realign_preserves_data =
  QCheck.Test.make ~name:"realign preserves data" ~count:200
    QCheck.(triple (string_of_size (Gen.int_range 0 128)) (int_range 1 8)
              small_nat)
    (fun (data, modulus, off) ->
      let p = Packet.of_string data in
      Packet.realign p ~modulus ~offset:(off mod modulus);
      Packet.data_offset p mod modulus = off mod modulus
      && Packet.to_string p = data)

(* Reference for the word-at-a-time checksum: the textbook byte-pair sum
   with end-around carry folding, no unrolling, no unsafe accesses. *)
let naive_ones_complement_sum buf ~pos ~len =
  let sum = ref 0 in
  let i = ref pos in
  while !i + 2 <= pos + len do
    sum :=
      !sum
      + ((Char.code (Bytes.get buf !i) lsl 8)
        lor Char.code (Bytes.get buf (!i + 1)));
    i := !i + 2
  done;
  if !i < pos + len then
    sum := !sum + (Char.code (Bytes.get buf !i) lsl 8);
  let s = ref !sum in
  while !s > 0xffff do
    s := (!s land 0xffff) + (!s lsr 16)
  done;
  !s

let prop_checksum_matches_naive =
  QCheck.Test.make ~name:"word-at-a-time checksum = naive reference"
    ~count:500
    QCheck.(
      triple (string_of_size (Gen.int_range 0 256)) small_nat small_nat)
    (fun (data, a, b) ->
      let buf = Bytes.of_string data in
      let n = Bytes.length buf in
      let pos = if n = 0 then 0 else a mod (n + 1) in
      let len = min (b mod 300) (n - pos) in
      Checksum.ones_complement_sum buf ~pos ~len
      = naive_ones_complement_sum buf ~pos ~len)

let test_checksum_bounds () =
  let buf = Bytes.create 8 in
  Alcotest.check_raises "negative pos"
    (Invalid_argument "Checksum.ones_complement_sum") (fun () ->
      ignore (Checksum.ones_complement_sum buf ~pos:(-1) ~len:2));
  Alcotest.check_raises "len past end"
    (Invalid_argument "Checksum.ones_complement_sum") (fun () ->
      ignore (Checksum.ones_complement_sum buf ~pos:4 ~len:5))

let prop_u32_byte_consistency =
  QCheck.Test.make ~name:"u32 equals its four bytes" ~count:200
    QCheck.(int_bound 0xffffff)
    (fun v ->
      let v = v * 251 land 0xffffffff in
      let p = Packet.create 4 in
      Packet.set_u32 p 0 v;
      Packet.get_u32 p 0 = v
      && Packet.get_u8 p 0 = (v lsr 24) land 0xff
      && Packet.get_u8 p 3 = v land 0xff)

(* --- window edges, fresh and pooled packets ------------------------------ *)

(* The same logical packet built two ways: [Packet.of_string] sizes its
   buffer to the request, [Pool.alloc] hands out a size-class buffer.
   Window adjustment must be observationally identical on both — past
   the buffer's room the buffer is reallocated with the window intact. *)

let fresh_packet ?headroom ?tailroom data =
  Packet.of_string ?headroom ?tailroom data

let pooled_packet ?headroom ?tailroom data =
  let pool = Packet.Pool.create ~capacity:4 () in
  let p = Packet.Pool.alloc pool ?headroom ?tailroom (String.length data) in
  Packet.set_string p ~pos:0 data;
  p

let test_pooled_push_past_headroom () =
  let p = pooled_packet ~headroom:2 "xy" in
  Packet.push p 40 (* beyond headroom: must reallocate, not corrupt *);
  check "grown" 42 (Packet.length p);
  check_str "tail survives" "xy" (Packet.get_string p ~pos:40 ~len:2)

let test_pooled_put_past_tailroom () =
  let p = pooled_packet "ab" in
  (* A pooled buffer is Pool.buf_size bytes; extending past the whole
     buffer forces a reallocation. *)
  let n = Packet.Pool.buf_size + 8 in
  Packet.put p n;
  check "extended" (2 + n) (Packet.length p);
  check_str "head survives" "ab" (Packet.get_string p ~pos:0 ~len:2);
  check "zero filled first" 0 (Packet.get_u8 p 2);
  check "zero filled last" 0 (Packet.get_u8 p (1 + n))

let test_exact_edges_in_place () =
  let p = pooled_packet ~headroom:8 "data" in
  Packet.push p 8 (* exactly the headroom: in-place, no growth *);
  check "headroom exhausted" 0 (Packet.headroom p);
  let t = Packet.tailroom p in
  Packet.put p t (* exactly the tailroom: fills the buffer in place *);
  check "tailroom exhausted" 0 (Packet.tailroom p);
  check "headroom still exhausted" 0 (Packet.headroom p);
  check_str "data intact at window head" "data"
    (Packet.get_string p ~pos:8 ~len:4)

let test_window_edge_bounds_both () =
  let run label p =
    let len = Packet.length p in
    check (label ^ ": last byte readable") 0x64 (Packet.get_u8 p (len - 1));
    Alcotest.check_raises
      (label ^ ": one past end raises")
      (Invalid_argument
         (Printf.sprintf "Packet: access at %d width 1 beyond length %d" len
            len))
      (fun () -> ignore (Packet.get_u8 p len));
    Alcotest.check_raises
      (label ^ ": pull past window raises")
      (Invalid_argument "Packet.pull")
      (fun () -> Packet.pull p (len + 1));
    Alcotest.check_raises
      (label ^ ": take past window raises")
      (Invalid_argument "Packet.take")
      (fun () -> Packet.take p (len + 1));
    Packet.pull p len;
    check (label ^ ": pulled to empty") 0 (Packet.length p);
    Packet.push p len;
    check (label ^ ": pushed back") len (Packet.length p);
    check_str (label ^ ": window restored") "abcd" (Packet.to_string p)
  in
  run "fresh" (fresh_packet "abcd");
  run "pooled" (pooled_packet "abcd")

(* Drive both packets through the same sequence of window ops,
   overwriting each pushed (uninitialized) region with a deterministic
   pattern so content comparison stays meaningful, and require identical
   geometry and bytes at every step. *)
let apply_window_op p code =
  let len = Packet.length p in
  match code mod 4 with
  | 0 ->
      let n = code mod 24 in
      Packet.push p n;
      for i = 0 to n - 1 do
        Packet.set_u8 p i ((code + i) land 0xff)
      done
  | 1 -> if len > 0 then Packet.pull p (code mod len)
  | 2 -> Packet.put p (code mod 24)
  | _ -> if len > 0 then Packet.take p (code mod len)

let prop_pooled_fresh_identical =
  QCheck.Test.make ~name:"pooled and fresh windows behave identically"
    ~count:300
    QCheck.(pair (string_of_size (Gen.int_range 1 48)) (small_list small_nat))
    (fun (data, ops) ->
      let f = fresh_packet ~headroom:4 ~tailroom:4 data in
      let p = pooled_packet ~headroom:4 data in
      List.iter
        (fun c ->
          apply_window_op f c;
          apply_window_op p c)
        ops;
      Packet.length f = Packet.length p
      && Packet.to_string f = Packet.to_string p)

let prop_growth_preserves_window =
  QCheck.Test.make ~name:"growth preserves the data window" ~count:200
    QCheck.(pair (string_of_size (Gen.int_range 1 64)) (int_range 1 96))
    (fun (data, n) ->
      let p = pooled_packet ~headroom:0 data in
      Packet.push p n (* headroom 0: any positive push reallocates *);
      Packet.pull p n;
      Packet.to_string p = data)

let () =
  Alcotest.run "packet"
    [
      ( "ipaddr",
        [
          Alcotest.test_case "parse" `Quick test_ipaddr_parse;
          Alcotest.test_case "print" `Quick test_ipaddr_print;
          Alcotest.test_case "netmask" `Quick test_netmask;
          Alcotest.test_case "prefix" `Quick test_prefix_parse;
          Alcotest.test_case "in_subnet" `Quick test_in_subnet;
          Alcotest.test_case "multicast" `Quick test_multicast;
        ] );
      ("ethaddr", [ Alcotest.test_case "basics" `Quick test_ethaddr ]);
      ( "buffer",
        [
          Alcotest.test_case "create" `Quick test_create;
          Alcotest.test_case "push/pull" `Quick test_push_pull;
          Alcotest.test_case "push beyond headroom" `Quick
            test_push_beyond_headroom;
          Alcotest.test_case "put/take" `Quick test_put_take;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "u16/u32" `Quick test_u16_u32;
          Alcotest.test_case "clone" `Quick test_clone_independent;
          Alcotest.test_case "realign" `Quick test_realign;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "rfc1071" `Quick test_checksum_rfc1071;
          Alcotest.test_case "odd length" `Quick test_checksum_odd;
          Alcotest.test_case "verify" `Quick test_checksum_verify;
          Alcotest.test_case "combine" `Quick test_checksum_combine;
          Alcotest.test_case "bounds" `Quick test_checksum_bounds;
        ] );
      ( "pool",
        [
          Alcotest.test_case "alloc fresh" `Quick test_pool_alloc_fresh;
          Alcotest.test_case "recycle reuse" `Quick test_pool_recycle_reuse;
          Alcotest.test_case "double recycle" `Quick
            test_pool_double_recycle_is_noop;
          Alcotest.test_case "capacity bound" `Quick test_pool_capacity_bound;
          Alcotest.test_case "copy on recycle" `Quick
            test_pool_copy_on_recycle;
          Alcotest.test_case "grows small buffer" `Quick
            test_pool_grows_small_buffer;
          Alcotest.test_case "imix reuse" `Quick test_pool_imix_reuse;
          Alcotest.test_case "oversize request" `Quick
            test_pool_oversize_request;
          Alcotest.test_case "small buffer refused" `Quick
            test_pool_small_buffer_refused;
        ] );
      ( "window-edges",
        [
          Alcotest.test_case "pooled push past headroom" `Quick
            test_pooled_push_past_headroom;
          Alcotest.test_case "pooled put past tailroom" `Quick
            test_pooled_put_past_tailroom;
          Alcotest.test_case "exact edges stay in place" `Quick
            test_exact_edges_in_place;
          Alcotest.test_case "bounds, both representations" `Quick
            test_window_edge_bounds_both;
        ] );
      ( "headers",
        [
          Alcotest.test_case "ether encap" `Quick test_ether_encap;
          Alcotest.test_case "ip fields" `Quick test_ip_fields;
          Alcotest.test_case "dec ttl checksum" `Quick
            test_decrement_ttl_checksum;
          Alcotest.test_case "fragment fields" `Quick test_fragment_fields;
          Alcotest.test_case "build udp" `Quick test_build_udp_is_64_bytes;
          Alcotest.test_case "build arp" `Quick test_build_arp;
          Alcotest.test_case "tcp flags" `Quick test_tcp_flags;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_pull_push_inverse;
            prop_checksum_update_valid;
            prop_checksum_matches_naive;
            prop_realign_preserves_data;
            prop_u32_byte_consistency;
            prop_pooled_fresh_identical;
            prop_growth_preserves_window;
          ] );
    ]
