(* Tests for the classification engine: raw patterns, the IPFilter
   language, decision-tree semantics, tree optimization, compiled
   classification, and the dump format. *)

module Tree = Oclick_classifier.Tree
module Bexpr = Oclick_classifier.Bexpr
module Pattern = Oclick_classifier.Pattern
module Filter = Oclick_classifier.Filter
module Optimize = Oclick_classifier.Optimize
module Compile = Oclick_classifier.Compile
module Packet = Oclick_packet.Packet
module Headers = Oclick_packet.Headers
module Ipaddr = Oclick_packet.Ipaddr

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let tree_of_pattern cfg =
  match Pattern.tree_of_config cfg with
  | Ok t -> t
  | Error e -> Alcotest.failf "pattern %S: %s" cfg e

let tree_of_filter cfg =
  match Filter.ipclassifier_tree cfg with
  | Ok t -> t
  | Error e -> Alcotest.failf "filter %S: %s" cfg e

let udp ?(src = "1.2.3.4") ?(dst = "10.0.1.2") ?(dst_port = 1234) () =
  Headers.Build.udp ~src_ip:(Ipaddr.of_string_exn src)
    ~dst_ip:(Ipaddr.of_string_exn dst) ~dst_port ()

let ip_packet p =
  Packet.pull p 14;
  p

(* --- raw Classifier patterns ------------------------------------------------ *)

let test_pattern_ethertype () =
  let t = tree_of_pattern "12/0806 20/0001, 12/0806 20/0002, 12/0800, -" in
  check "udp -> 2" 2 (Tree.classify t (udp ()));
  let q =
    Headers.Build.arp_query
      ~src_eth:(Oclick_packet.Ethaddr.of_string_exn "00:11:22:33:44:55")
      ~src_ip:1 ~target_ip:2
  in
  check "arp query -> 0" 0 (Tree.classify t q);
  let r =
    Headers.Build.arp_reply
      ~src_eth:(Oclick_packet.Ethaddr.of_string_exn "00:11:22:33:44:55")
      ~src_ip:1
      ~dst_eth:(Oclick_packet.Ethaddr.of_string_exn "00:11:22:33:44:66")
      ~dst_ip:2
  in
  check "arp reply -> 1" 1 (Tree.classify t r)

let test_pattern_wildcard_nibbles () =
  let t = tree_of_pattern "12/08??, -" in
  check "0800 matches" 0 (Tree.classify t (udp ()));
  let p = udp () in
  Packet.set_u16 p 12 0x08ff;
  check "08ff matches" 0 (Tree.classify t p);
  Packet.set_u16 p 12 0x0906;
  check "0906 misses" 1 (Tree.classify t p)

let test_pattern_explicit_mask () =
  let t = tree_of_pattern "14/40%F0, -" in
  (* byte 14 is the IP version/hl byte: 0x45 & 0xF0 = 0x40 *)
  check "version nibble" 0 (Tree.classify t (udp ()))

let test_pattern_negation () =
  let t = tree_of_pattern "!12/0800, -" in
  check "udp misses negated" 1 (Tree.classify t (udp ()));
  let q =
    Headers.Build.arp_query
      ~src_eth:(Oclick_packet.Ethaddr.of_string_exn "00:11:22:33:44:55")
      ~src_ip:1 ~target_ip:2
  in
  check "arp matches negated" 0 (Tree.classify t q)

let test_pattern_multiple_clauses () =
  let t = tree_of_pattern "12/0800 23/11, 12/0800, -" in
  check "udp is proto 17" 0 (Tree.classify t (udp ()));
  let icmp =
    Headers.Build.icmp_echo ~src_ip:1 ~dst_ip:2 ()
  in
  check "icmp falls to plain ip" 1 (Tree.classify t icmp)

let test_pattern_short_packet () =
  let t = tree_of_pattern "60/ff, -" in
  (* reads beyond a 56-byte packet see zeros *)
  check "zero-padded read" 1 (Tree.classify t (udp ()))

let test_pattern_errors () =
  check_bool "bad hex" true (Result.is_error (Pattern.tree_of_config "12/08g0"));
  check_bool "no slash" true (Result.is_error (Pattern.tree_of_config "1208"));
  check_bool "odd nibbles" true (Result.is_error (Pattern.tree_of_config "12/080"));
  check_bool "empty" true (Result.is_error (Pattern.tree_of_config ""))

(* --- the IPFilter language --------------------------------------------------- *)

let classify_ip t ~mk = Tree.classify t (ip_packet (mk ()))

let test_filter_proto () =
  let t = tree_of_filter "udp, tcp, icmp, -" in
  check "udp" 0 (classify_ip t ~mk:udp);
  check "tcp" 1
    (Tree.classify t
       (ip_packet (Headers.Build.tcp ~src_ip:1 ~dst_ip:2 ~src_port:9 ~dst_port:80 ())));
  check "icmp" 2
    (Tree.classify t (ip_packet (Headers.Build.icmp_echo ~src_ip:1 ~dst_ip:2 ())))

let test_filter_host_dir () =
  let t =
    tree_of_filter
      "src host 1.2.3.4, dst host 1.2.3.4, host 5.6.7.8, -"
  in
  check "src" 0 (classify_ip t ~mk:(fun () -> udp ~src:"1.2.3.4" ~dst:"9.9.9.9" ()));
  check "dst" 1 (classify_ip t ~mk:(fun () -> udp ~src:"9.9.9.9" ~dst:"1.2.3.4" ()));
  check "either (src)" 2
    (classify_ip t ~mk:(fun () -> udp ~src:"5.6.7.8" ~dst:"9.9.9.9" ()));
  check "either (dst)" 2
    (classify_ip t ~mk:(fun () -> udp ~src:"9.9.9.9" ~dst:"5.6.7.8" ()));
  check "neither" 3 (classify_ip t ~mk:(fun () -> udp ~src:"9.9.9.9" ~dst:"8.8.8.8" ()))

let test_filter_net () =
  let t = tree_of_filter "src net 10.0.0.0/8, -" in
  check "in net" 0 (classify_ip t ~mk:(fun () -> udp ~src:"10.200.1.1" ()));
  check "out of net" 1 (classify_ip t ~mk:(fun () -> udp ~src:"11.0.0.1" ()))

let test_filter_port () =
  let t = tree_of_filter "udp && dst port 53, udp && src port 53, -" in
  check "dst 53" 0 (classify_ip t ~mk:(fun () -> udp ~dst_port:53 ()));
  check "other port" 2 (classify_ip t ~mk:(fun () -> udp ~dst_port:54 ()))

let test_filter_port_range () =
  let t = tree_of_filter "udp && dst port 1024-65535, -" in
  check "below range" 1 (classify_ip t ~mk:(fun () -> udp ~dst_port:1023 ()));
  check "range start" 0 (classify_ip t ~mk:(fun () -> udp ~dst_port:1024 ()));
  check "inside" 0 (classify_ip t ~mk:(fun () -> udp ~dst_port:30000 ()));
  check "range end" 0 (classify_ip t ~mk:(fun () -> udp ~dst_port:65535 ()))

let prop_port_range_membership =
  QCheck.Test.make ~name:"port range = membership" ~count:200
    QCheck.(triple (int_bound 0xffff) (int_bound 0xffff) (int_bound 0xffff))
    (fun (a, b, probe) ->
      let lo = min a b and hi = max a b in
      match
        Filter.ipclassifier_tree
          (Printf.sprintf "udp && dst port %d-%d, -" lo hi)
      with
      | Error _ -> false
      | Ok t ->
          let p = ip_packet (udp ~dst_port:probe ()) in
          let expected = if probe >= lo && probe <= hi then 0 else 1 in
          Tree.classify t p = expected)

let test_filter_port_names () =
  let t = tree_of_filter "tcp && dst port www, -" in
  check "www = 80" 0
    (Tree.classify t
       (ip_packet (Headers.Build.tcp ~src_ip:1 ~dst_ip:2 ~src_port:9 ~dst_port:80 ())))

let test_filter_fragment_guard () =
  (* Port tests must not match fragments (their transport header is
     elsewhere). *)
  let t = tree_of_filter "udp && dst port 1234, -" in
  let p = ip_packet (udp ()) in
  check "unfragmented matches" 0 (Tree.classify t p);
  Headers.Ip.set_flags_fragment p ~df:false ~mf:false ~frag:10;
  Headers.Ip.update_checksum p;
  check "fragment does not match port" 1 (Tree.classify t p)

let test_filter_boolean_ops () =
  let t = tree_of_filter "udp and not dst host 9.9.9.9, -" in
  check "udp other host" 0 (classify_ip t ~mk:udp);
  check "udp excluded host" 1
    (classify_ip t ~mk:(fun () -> udp ~dst:"9.9.9.9" ()));
  let t2 = tree_of_filter "(tcp || udp) && dst net 10.0.0.0/8, -" in
  check "parens" 0 (classify_ip t2 ~mk:udp)

let test_filter_icmp_type () =
  let t = tree_of_filter "icmp type 8, icmp, -" in
  check "echo request" 0
    (Tree.classify t (ip_packet (Headers.Build.icmp_echo ~src_ip:1 ~dst_ip:2 ())));
  let reply = ip_packet (Headers.Build.icmp_echo ~src_ip:1 ~dst_ip:2 ()) in
  Headers.Icmp.set_type ~off:20 reply 0;
  check "other icmp" 1 (Tree.classify t reply)

let test_filter_tcp_opt () =
  let t = tree_of_filter "tcp opt syn, tcp, -" in
  let syn = ip_packet (Headers.Build.tcp ~src_ip:1 ~dst_ip:2 ~src_port:1 ~dst_port:2 ()) in
  check "syn" 0 (Tree.classify t syn);
  let ack =
    ip_packet
      (Headers.Build.tcp ~src_ip:1 ~dst_ip:2 ~src_port:1 ~dst_port:2
         ~flags:Headers.Tcp.flag_ack ())
  in
  check "plain ack" 1 (Tree.classify t ack)

let test_filter_ip_fields () =
  let t = tree_of_filter "ip ttl 64, -" in
  check "ttl 64" 0 (classify_ip t ~mk:udp);
  let t2 = tree_of_filter "ip vers 4, -" in
  check "version" 0 (classify_ip t2 ~mk:udp)

let test_ipfilter_actions () =
  match Filter.parse_ipfilter_config "allow udp, deny tcp, 3 icmp, deny all" with
  | Error e -> Alcotest.failf "ipfilter config: %s" e
  | Ok rules ->
      Alcotest.(check (list int))
        "outputs" [ 0; Tree.drop; 3; Tree.drop ]
        (List.map (fun (r : Bexpr.rule) -> r.r_output) rules)

let test_filter_errors () =
  check_bool "unknown word" true (Result.is_error (Filter.parse "frobnicate"));
  check_bool "trailing" true (Result.is_error (Filter.parse "udp udp"));
  check_bool "unclosed paren" true (Result.is_error (Filter.parse "(udp"));
  check_bool "bad ip" true (Result.is_error (Filter.parse "host 1.2.3"));
  check_bool "bad port" true (Result.is_error (Filter.parse "dst port 99999"))

(* --- trees ------------------------------------------------------------------- *)

let test_tree_depth_count () =
  let t = tree_of_pattern "12/0806 20/0001, 12/0806 20/0002, 12/0800, -" in
  check_bool "depth positive" true (Tree.depth t > 0);
  check_bool "nodes at least depth" true (Tree.node_count t >= Tree.depth t);
  check "safe length" 24 (Tree.safe_length t)

let test_tree_dump_roundtrip () =
  let t = Optimize.optimize (tree_of_pattern "12/0806 20/0001, 12/0800, -") in
  match Tree.of_string (Tree.to_string t) with
  | Ok t2 -> check_bool "equal" true (Tree.equal t t2)
  | Error e -> Alcotest.failf "dump parse: %s" e

let test_tree_dump_errors () =
  check_bool "garbage" true (Result.is_error (Tree.of_string "what"));
  check_bool "bad node line" true
    (Result.is_error (Tree.of_string "outputs 2 root 0\nnonsense"));
  (* The one-node dump click-fastclassifier writes for
     Classifier(12/0800, -), edited the three ways the walk cannot
     survive: a target past the nodes, a cycle, a negative offset. *)
  let dump ?(root = "0") ?(off = "12") ?(yes = "[0]") ?(no = "[1]") () =
    Tree.of_string
      (Printf.sprintf
         "outputs 2 root %s\n0: off %s mask 0xffff0000 value 0x08000000 yes %s no %s\n"
         root off yes no)
  in
  check_bool "the dump parses" true (Result.is_ok (dump ()));
  check_bool "target past the nodes" true (Result.is_error (dump ~yes:"7" ()));
  check_bool "root past the nodes" true (Result.is_error (dump ~root:"1" ()));
  check_bool "cycle on yes" true (Result.is_error (dump ~yes:"0" ()));
  check_bool "cycle on no" true (Result.is_error (dump ~no:"0" ()));
  check_bool "negative offset" true (Result.is_error (dump ~off:"-4" ()));
  check_bool "cycle through two nodes" true
    (Result.is_error
       (Tree.of_string
          "outputs 2 root 0\n\
           0: off 0 mask 0x1 value 0x1 yes 1 no [0]\n\
           1: off 4 mask 0x1 value 0x1 yes 0 no [1]\n"));
  check_bool "shared subtree is a DAG" true
    (Result.is_ok
       (Tree.of_string
          "outputs 2 root 0\n\
           0: off 0 mask 0x1 value 0x1 yes 1 no 1\n\
           1: off 4 mask 0x1 value 0x1 yes [0] no [1]\n"))

let test_leaf_tree () =
  let t = Tree.leaf_tree 1 2 in
  check "constant" 1 (Tree.classify t (udp ()));
  check "no nodes" 0 (Tree.node_count t)

(* --- optimization ------------------------------------------------------------ *)

let random_packet_gen =
  QCheck.Gen.(
    map
      (fun (bytes, len) ->
        let p = Packet.create (24 + (len mod 40)) in
        List.iteri
          (fun i b -> if i < Packet.length p then Packet.set_u8 p i b)
          bytes;
        p)
      (pair (list_size (int_range 24 64) (int_bound 255)) small_nat))

let patterns_gen =
  QCheck.Gen.(
    let clause =
      let* off = int_range 0 20 in
      let* v = int_bound 255 in
      return (Printf.sprintf "%d/%02x" off v)
    in
    let pattern =
      let* n = int_range 1 3 in
      let* cs = list_repeat n clause in
      let* neg = bool in
      return ((if neg then "!" else "") ^ String.concat " " cs)
    in
    let* n = int_range 1 5 in
    let* ps = list_repeat n pattern in
    return (String.concat ", " (ps @ [ "-" ])))

let prop_optimize_preserves_semantics =
  QCheck.Test.make ~name:"optimize preserves classification" ~count:300
    (QCheck.make
       QCheck.Gen.(pair patterns_gen random_packet_gen))
    (fun (cfg, p) ->
      match Pattern.tree_of_config cfg with
      | Error _ -> QCheck.assume_fail ()
      | Ok t ->
          let ot = Optimize.optimize t in
          Tree.classify t p = Tree.classify ot p)

let prop_compile_matches_interpreter =
  QCheck.Test.make ~name:"compiled = interpreted" ~count:300
    (QCheck.make QCheck.Gen.(pair patterns_gen random_packet_gen))
    (fun (cfg, p) ->
      match Pattern.tree_of_config cfg with
      | Error _ -> QCheck.assume_fail ()
      | Ok t ->
          let t = Optimize.optimize t in
          Compile.compile_packet t p = Tree.classify t p)

(* Truncated packets: the packed walk every datapath runs and the
   closure form (Compile.compile_packet) must resolve out-of-bounds field
   reads identically (zero fill); the walk's visited count must match a
   reference walk written here, because testbed charges are priced from
   it; and optimization must not change the answer even when some
   tested fields lie wholly or partly beyond the packet. *)
let truncated_packet_gen =
  QCheck.Gen.(
    map
      (fun (bytes, len) ->
        let p = Packet.create len in
        List.iteri (fun i b -> if i < len then Packet.set_u8 p i b) bytes;
        p)
      (pair (list_size (return 28) (int_bound 255)) (int_bound 27)))

let reference_walk (t : Tree.t) p =
  let byte i = if i < Packet.length p then Packet.get_u8 p i else 0 in
  let word off =
    (byte off lsl 24) lor (byte (off + 1) lsl 16)
    lor (byte (off + 2) lsl 8)
    lor byte (off + 3)
  in
  let rec go target visited =
    match target with
    | Tree.Leaf k -> (k, visited)
    | Tree.Node i ->
        let n = t.Tree.nodes.(i) in
        if word n.Tree.offset land n.Tree.mask = n.Tree.value then
          go n.Tree.yes (visited + 1)
        else go n.Tree.no (visited + 1)
  in
  go t.Tree.root 0

let prop_truncated_backends_agree =
  QCheck.Test.make
    ~name:"truncated packets: interp = compiled = reference walk" ~count:500
    (QCheck.make QCheck.Gen.(pair patterns_gen truncated_packet_gen))
    (fun (cfg, p) ->
      match Pattern.tree_of_config cfg with
      | Error _ -> QCheck.assume_fail ()
      | Ok t ->
          let backends_agree t =
            let out, visited = Tree.classify_count t p in
            out = Compile.compile_packet t p
            && (out, visited) = reference_walk t p
          in
          let ot = Optimize.optimize t in
          backends_agree t && backends_agree ot
          && Tree.classify t p = Tree.classify ot p)

let prop_optimize_preserves_shape =
  QCheck.Test.make ~name:"optimize preserves outputs and renumbers densely"
    ~count:100 (QCheck.make patterns_gen)
    (fun cfg ->
      match Pattern.tree_of_config cfg with
      | Error _ -> QCheck.assume_fail ()
      | Ok t ->
          let ot = Optimize.optimize t in
          ot.Tree.noutputs = t.Tree.noutputs
          && Tree.equal ot (Tree.renumber ot))

let test_optimize_removes_dominated () =
  (* The same test twice in a row: the second instance must disappear. *)
  let t = tree_of_pattern "12/0800 12/0800, -" in
  let ot = Optimize.optimize t in
  check "single node" 1 (Tree.node_count ot)

let test_optimize_contradiction () =
  (* 12/08 and 12/09 cannot both hold: output 0 is unreachable via an
     always-false path and the tree shrinks. *)
  let t = tree_of_pattern "12/08 12/09, -" in
  let ot = Optimize.optimize t in
  check "contradiction eliminated" 0 (Tree.node_count ot);
  check "always output 1" 1 (Tree.classify ot (udp ()))

let test_optimize_shares_subtrees () =
  let t =
    tree_of_pattern "12/0800 20/0001, 12/0806 20/0001, -"
  in
  let ot = Optimize.optimize t in
  check_bool "shared" true (Tree.node_count ot <= Tree.node_count t)

let test_compose () =
  (* Upstream picks IP vs rest; downstream splits IP by protocol. *)
  let t1 = tree_of_pattern "12/0800, -" in
  let t2 = tree_of_pattern "23/11, -" in
  let composed =
    Optimize.compose t1 ~output:0 t2
      ~remap_upper:(fun o -> o - 1) (* old output 1 -> 0 *)
      ~remap_lower:(fun o -> o + 1) (* t2 outputs -> 1, 2 *)
      ~noutputs:3
  in
  check "udp" 1 (Tree.classify composed (udp ()));
  check "non-ip" 0
    (Tree.classify composed
       (Headers.Build.arp_query
          ~src_eth:(Oclick_packet.Ethaddr.of_string_exn "00:11:22:33:44:55")
          ~src_ip:1 ~target_ip:2));
  let icmp = Headers.Build.icmp_echo ~src_ip:1 ~dst_ip:2 () in
  check "ip non-udp" 2 (Tree.classify composed icmp)

(* --- the DNS-5 firewall (paper §4) ------------------------------------------- *)

let firewall_rules =
  "deny ip frag, deny src net 127.0.0.0/8, deny src net 10.0.0.0/8, deny \
   src net 172.16.0.0/12, allow dst host 192.168.1.2 && tcp dst port 25, \
   allow src host 192.168.1.2 && tcp src port 25 && tcp opt ack, allow src \
   net 192.168.1.0/24 && tcp dst port 80, allow dst net 192.168.1.0/24 && \
   tcp src port 80 && tcp opt ack, deny tcp dst port 23, deny tcp dst port \
   111, allow dst host 192.168.1.2 && tcp dst port 22, allow icmp type 8, \
   allow icmp type 0, deny udp dst port 69, deny udp dst port 2049, allow \
   dst host 192.168.1.3 && udp dst port 53, deny all"

let test_firewall_dns5 () =
  let t =
    match Filter.ipfilter_tree firewall_rules with
    | Ok t -> Optimize.optimize t
    | Error e -> Alcotest.failf "firewall: %s" e
  in
  let dns5 =
    ip_packet (udp ~src:"204.152.184.134" ~dst:"192.168.1.3" ~dst_port:53 ())
  in
  check "dns5 allowed" 0 (Tree.classify t dns5);
  let out, visited = Tree.classify_count t dns5 in
  check "same out" 0 out;
  check_bool "long traversal" true (visited >= 8);
  (* the default deny *)
  check "random udp denied" Tree.drop
    (Tree.classify t (ip_packet (udp ~dst:"8.8.8.8" ())));
  (* spoofed source denied early *)
  let spoofed = ip_packet (udp ~src:"10.1.1.1" ~dst:"192.168.1.3" ~dst_port:53 ()) in
  check "spoof denied" Tree.drop (Tree.classify t spoofed);
  (* smtp to bastion allowed *)
  let smtp =
    ip_packet
      (Headers.Build.tcp ~src_ip:(Ipaddr.of_string_exn "4.4.4.4")
         ~dst_ip:(Ipaddr.of_string_exn "192.168.1.2") ~src_port:999
         ~dst_port:25 ())
  in
  check "smtp allowed" 0 (Tree.classify t smtp)

let () =
  Alcotest.run "classifier"
    [
      ( "patterns",
        [
          Alcotest.test_case "ethertype" `Quick test_pattern_ethertype;
          Alcotest.test_case "wildcard nibbles" `Quick
            test_pattern_wildcard_nibbles;
          Alcotest.test_case "explicit mask" `Quick test_pattern_explicit_mask;
          Alcotest.test_case "negation" `Quick test_pattern_negation;
          Alcotest.test_case "multiple clauses" `Quick
            test_pattern_multiple_clauses;
          Alcotest.test_case "short packet" `Quick test_pattern_short_packet;
          Alcotest.test_case "errors" `Quick test_pattern_errors;
        ] );
      ( "filter",
        [
          Alcotest.test_case "proto" `Quick test_filter_proto;
          Alcotest.test_case "host directions" `Quick test_filter_host_dir;
          Alcotest.test_case "net" `Quick test_filter_net;
          Alcotest.test_case "port" `Quick test_filter_port;
          Alcotest.test_case "port names" `Quick test_filter_port_names;
          Alcotest.test_case "port range" `Quick test_filter_port_range;
          QCheck_alcotest.to_alcotest prop_port_range_membership;
          Alcotest.test_case "fragment guard" `Quick
            test_filter_fragment_guard;
          Alcotest.test_case "boolean ops" `Quick test_filter_boolean_ops;
          Alcotest.test_case "icmp type" `Quick test_filter_icmp_type;
          Alcotest.test_case "tcp opt" `Quick test_filter_tcp_opt;
          Alcotest.test_case "ip fields" `Quick test_filter_ip_fields;
          Alcotest.test_case "actions" `Quick test_ipfilter_actions;
          Alcotest.test_case "errors" `Quick test_filter_errors;
        ] );
      ( "tree",
        [
          Alcotest.test_case "depth/count" `Quick test_tree_depth_count;
          Alcotest.test_case "dump round trip" `Quick test_tree_dump_roundtrip;
          Alcotest.test_case "dump errors" `Quick test_tree_dump_errors;
          Alcotest.test_case "leaf tree" `Quick test_leaf_tree;
        ] );
      ( "optimize",
        [
          Alcotest.test_case "dominated" `Quick test_optimize_removes_dominated;
          Alcotest.test_case "contradiction" `Quick test_optimize_contradiction;
          Alcotest.test_case "sharing" `Quick test_optimize_shares_subtrees;
          Alcotest.test_case "compose" `Quick test_compose;
        ] );
      ("firewall", [ Alcotest.test_case "DNS-5" `Quick test_firewall_dns5 ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_optimize_preserves_semantics;
            prop_compile_matches_interpreter;
            prop_truncated_backends_agree;
            prop_optimize_preserves_shape;
          ] );
    ]
