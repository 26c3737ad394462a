(* Basic traffic-handling elements: sinks, switches, queues, RED. *)

open Prelude

(* Discard: a sink. With a push input it just counts; with a pull input it
   runs as a task, actively pulling packets (as in Click). *)
class discard name =
  object (self)
    inherit E.base name
    val mutable count = 0
    val mutable pull_mode = false
    method class_name = "Discard"
    method! port_count = "1/0"
    method! processing = "a/a"

    method! initialize ctx =
      (* Pull mode iff the upstream output resolved to pull: detect from the
         graph by asking whether our input peer is a pull output. *)
      let graph = ctx.E.ic_graph in
      (match Oclick_graph.Check.resolve_processing graph Registry.spec_table with
      | Ok r ->
          let kinds = r.Oclick_graph.Check.input_kind.(ctx.E.ic_index) in
          if Array.length kinds > 0 && kinds.(0) = Spec.Pull then
            pull_mode <- true
      | Error _ -> ());
      Ok ()

    method! push _ p =
      count <- count + 1;
      self#drop ~reason:"discarded" p

    method! wants_task = pull_mode

    method! run_task =
      match self#input_pull 0 with
      | Some p ->
          count <- count + 1;
          self#drop ~reason:"discarded" p;
          true
      | None -> false

    method! push_batch _ batch =
      let n = Array.length batch in
      count <- count + n;
      for i = 0 to n - 1 do
        self#drop ~reason:"discarded" batch.(i)
      done

    method! stats = [ ("count", count) ]
  end

class idle name =
  object (self)
    inherit E.base name
    method class_name = "Idle"
    method! port_count = "-/-"
    method! processing = "a/a"
    method! push _ p = self#drop ~reason:"discarded" p
    method! pull _ = None
    method! configure _ = Ok ()
  end

class counter name =
  object (self)
    inherit E.base name
    val mutable packets = 0
    val mutable bytes = 0
    method class_name = "Counter"

    method! push _ p =
      packets <- packets + 1;
      bytes <- bytes + Packet.length p;
      self#output 0 p

    method! pull _ =
      match self#input_pull 0 with
      | Some p ->
          packets <- packets + 1;
          bytes <- bytes + Packet.length p;
          Some p
      | None -> None

    method! push_batch _ batch =
      let n = Array.length batch in
      packets <- packets + n;
      for i = 0 to n - 1 do
        bytes <- bytes + Packet.length batch.(i)
      done;
      self#output_batch 0 batch

    method! stats = [ ("packets", packets); ("bytes", bytes) ]

    method! write_handler handler _value =
      match handler with
      | "reset" ->
          packets <- 0;
          bytes <- 0;
          Ok ()
      | h -> Error (Printf.sprintf "Counter: no write handler %S" h)
  end

(* Tee: clones to outputs 1..n-1, sends the original to output 0. *)
class tee name =
  object (self)
    inherit E.base name
    val mutable configured_n = -1
    method class_name = "Tee"
    method! port_count = "1/1-"
    method! processing = "h/h"

    method! configure config =
      match Args.split config with
      | [] -> Ok ()
      | [ n ] -> (
          match Args.parse_int n with
          | Some k when k >= 1 ->
              configured_n <- k;
              Ok ()
          | _ -> Error (Printf.sprintf "bad Tee output count %S" n))
      | _ -> Error "Tee takes at most one argument"

    method! push _ p =
      for port = 1 to self#noutputs - 1 do
        let c = Packet.clone p in
        self#spawn c;
        self#output port c
      done;
      self#output 0 p
  end

class static_switch name =
  object (self)
    inherit E.base name
    val mutable target = 0
    method class_name = "StaticSwitch"
    method! port_count = "1/-"
    method! processing = "h/h"

    method! configure config =
      match Args.parse_int config with
      | Some k -> Ok (target <- k)
      | None -> Error "StaticSwitch expects an output number"

    method! push _ p =
      if target >= 0 && target < self#noutputs then self#output target p
      else self#drop ~reason:"switched off" p
  end

(* PaintSwitch: route by the paint annotation. *)
class paint_switch name =
  object (self)
    inherit E.base name
    method class_name = "PaintSwitch"
    method! port_count = "1/-"
    method! processing = "h/h"
    method! configure _ = Ok ()

    method! region_sem =
      (* Folded by the fusion pass only under a dominating Paint, where
         the output is a compile-time constant. *)
      Some
        (Region.Paint_switch
           {
             ps_invalid = (fun p -> self#drop ~reason:"no output for paint" p);
           })
  end

class print name =
  object (self)
    inherit E.base name
    val mutable label = ""
    val mutable limit = 8 (* bytes of payload to show *)
    val mutable printed = 0
    method class_name = "Print"

    method! configure config =
      match Args.split config with
      | [] -> Ok ()
      | [ l ] ->
          label <- l;
          Ok ()
      | [ l; n ] -> (
          label <- l;
          match Args.parse_int n with
          | Some k when k >= 0 ->
              limit <- k;
              Ok ()
          | _ -> Error "bad Print byte count")
      | _ -> Error "Print takes LABEL and optional byte count"

    method private show p =
      printed <- printed + 1;
      let n = min limit (Packet.length p) in
      let hex =
        String.concat " "
          (List.init n (fun i -> Printf.sprintf "%02x" (Packet.get_u8 p i)))
      in
      Printf.printf "%s: %4d | %s\n" label (Packet.length p) hex

    method! push _ p =
      self#show p;
      self#output 0 p

    method! pull _ =
      match self#input_pull 0 with
      | Some p ->
          self#show p;
          Some p
      | None -> None

    method! stats = [ ("printed", printed) ]
  end

class queue name =
  object (self)
    inherit E.base name
    val q : Packet.t Fifo.t = Fifo.create ()

    (* Ring mode: when the sharded runtime cuts the graph at this queue,
       the storage is swapped (via the "spsc" write handler, before any
       traffic) for a lock-free SPSC ring so the push half can run on the
       producing domain and the pull half on the consuming one. In ring
       mode the pull side stays hands-off of this element's mutable
       counters and hooks — those belong to the producer's domain — so
       the W_queue charge and highwater tracking happen on push only. *)
    val mutable ring : Packet.t Spsc.t option = None
    val mutable capacity = 1000
    val mutable drops = 0
    val mutable highwater = 0

    (* Admission control: RED-style early drop at the queue itself,
       evaluated on the enqueue (producer) side — so under multicore
       sharding the early drop, like all this element's counters, runs
       and is accounted on the producing domain. Off by default. *)
    val mutable early : (int * int * float) option = None
    val mutable early_avg = 0.0
    val mutable early_drops = 0
    val early_rng = ref 0
    method class_name = "Queue"
    method! processing = "h/l"

    method private parse_early value =
      match
        List.filter (( <> ) "") (String.split_on_char ' ' (String.trim value))
      with
      | [ mn; mx; p ] -> (
          match (Args.parse_int mn, Args.parse_int mx, float_of_string_opt p)
          with
          | Some mn, Some mx, Some p
            when 0 <= mn && mn < mx && p >= 0.0 && p <= 1.0 ->
              Ok (Some (mn, mx, p))
          | _ -> Error "bad EARLY MIN MAX P (0 <= MIN < MAX, 0 <= P <= 1)")
      | _ -> Error "EARLY expects \"MIN MAX P\""

    method! configure config =
      early_rng := lcg_seed_of_name name;
      let positional, keywords = parse_positional_and_keywords config in
      let cap_ok =
        match positional with
        | [] -> Ok ()
        | [ n ] -> (
            match Args.parse_int n with
            | Some c when c > 0 ->
                capacity <- c;
                Ok ()
            | _ -> Error (Printf.sprintf "bad Queue capacity %S" n))
        | _ -> Error "Queue takes at most one capacity argument"
      in
      match cap_ok with
      | Error _ as e -> e
      | Ok () ->
          List.fold_left
            (fun acc (k, v) ->
              match acc with
              | Error _ -> acc
              | Ok () -> (
                  match k with
                  | "EARLY" ->
                      Result.map (fun e -> early <- e) (self#parse_early v)
                  | _ -> Error (Printf.sprintf "Queue: unknown keyword %s" k)))
            (Ok ()) keywords

    method private early_dropped p =
      match early with
      | None -> false
      | Some (min_thresh, max_thresh, max_p) ->
          let len =
            match ring with
            | Some r -> Spsc.length r
            | None -> Fifo.length q
          in
          let w = 0.25 in
          early_avg <- ((1.0 -. w) *. early_avg) +. (w *. float_of_int len);
          let doomed =
            if early_avg < float_of_int min_thresh then false
            else if early_avg >= float_of_int max_thresh then true
            else
              let fraction =
                (early_avg -. float_of_int min_thresh)
                /. float_of_int (max_thresh - min_thresh)
              in
              lcg_float early_rng < max_p *. fraction
          in
          if doomed then begin
            early_drops <- early_drops + 1;
            drops <- drops + 1;
            self#drop ~reason:"early drop" p
          end;
          doomed

    method private enqueue p =
      if not (self#early_dropped p) then
        match ring with
        | Some r ->
            if Spsc.push r p then highwater <- max highwater (Spsc.length r)
            else begin
              drops <- drops + 1;
              self#drop ~reason:"queue full" p
            end
        | None ->
            if Fifo.length q >= capacity then begin
              drops <- drops + 1;
              self#drop ~reason:"queue full" p
            end
            else begin
              Fifo.add q ~cap:capacity p;
              highwater <- max highwater (Fifo.length q)
            end

    method! push _ p =
      if not lean_work then self#charge Hooks.W_queue;
      self#enqueue p

    method! pull _ =
      match ring with
      | Some r -> Spsc.pop r
      | None ->
          if not lean_work then self#charge Hooks.W_queue;
          Fifo.take_opt q

    method! push_batch _ batch =
      (* Hoisted batch enqueue: one W_queue charge per packet is folded
         into a single charge for the whole batch (the amortization the
         batched path models), the capacity headroom is computed once,
         and the overflow tail is dropped without re-testing per
         packet. *)
      let n = Array.length batch in
      if not lean_work then self#charge Hooks.W_queue;
      match ring with
      | Some _ ->
          for i = 0 to n - 1 do
            self#enqueue batch.(i)
          done
      | None when early <> None ->
          (* Early drop samples the occupancy per packet, so the bulk
             headroom shortcut below doesn't apply. *)
          for i = 0 to n - 1 do
            self#enqueue batch.(i)
          done
      | None ->
          let room = capacity - Fifo.length q in
          let accept = if room < n then max room 0 else n in
          for i = 0 to accept - 1 do
            Fifo.add q ~cap:capacity batch.(i)
          done;
          highwater <- max highwater (Fifo.length q);
          for i = accept to n - 1 do
            drops <- drops + 1;
            self#drop ~reason:"queue full" batch.(i)
          done

    method! pull_batch _ dst =
      match ring with
      | Some r ->
          (* Batch drain: one pair of atomic index operations moves the
             whole run of descriptors across the domain cut. *)
          Spsc.pop_into r dst (Array.length dst)
      | None ->
          let want = min (Array.length dst) (Fifo.length q) in
          if want > 0 then begin
            if not lean_work then self#charge Hooks.W_queue;
            for i = 0 to want - 1 do
              dst.(i) <- Fifo.take q
            done
          end;
          want

    method! stats =
      let base =
        [
          ( "length",
            match ring with
            | Some r -> Spsc.length r
            | None -> Fifo.length q );
          ("capacity", capacity);
          ("drops", drops);
          ("early_drops", early_drops);
          ("highwater", highwater);
        ]
      in
      match ring with
      | Some r -> base @ [ ("ring", Spsc.capacity r) ]
      | None -> base

    method! write_handler handler value =
      match handler with
      | "capacity" -> (
          match Args.parse_int value with
          | Some c when c > 0 ->
              capacity <- c;
              Ok ()
          | _ -> Error "capacity must be a positive integer")
      | "spsc" -> (
          (* Switch to ring mode. Setup-time only: any packets already
             buffered move into the ring, which must be able to hold
             them. *)
          match Args.parse_int value with
          | Some c when c > 0 ->
              let r =
                Spsc.create ~dummy:(Packet.create ~headroom:0 ~tailroom:0 0) c
              in
              let overflow = ref false in
              Fifo.iter
                (fun p -> if not (Spsc.push r p) then overflow := true)
                q;
              if !overflow then Error "spsc: buffered packets exceed ring capacity"
              else begin
                Fifo.clear q;
                capacity <- c;
                ring <- Some r;
                Ok ()
              end
          | _ -> Error "spsc capacity must be a positive integer")
      | "early" ->
          if String.trim value = "off" then begin
            early <- None;
            Ok ()
          end
          else Result.map (fun e -> early <- e) (self#parse_early value)
      | "reset_counts" ->
          drops <- 0;
          early_drops <- 0;
          highwater <-
            (match ring with
            | Some r -> Spsc.length r
            | None -> Fifo.length q);
          Ok ()
      | h -> Error (Printf.sprintf "Queue: no write handler %S" h)
  end

(* Unqueue: a pull-to-push conduit — a scheduled task that pulls up to
   BURST packets from its input and pushes them downstream. The sharding
   pass inserts Queue→Unqueue pairs to create scheduling boundaries on
   push paths that had none (the click-combine trick), so a private
   upstream region and the shared core can run on different domains. *)
class unqueue name =
  object (self)
    inherit E.base name
    val mutable burst = 8
    val mutable moved = 0
    method class_name = "Unqueue"
    method! port_count = "1/1"
    method! processing = "l/h"

    method! configure config =
      match Args.split config with
      | [] -> Ok ()
      | [ b ] -> (
          match Args.parse_int b with
          | Some n when n > 0 ->
              burst <- n;
              Ok ()
          | _ -> Error (Printf.sprintf "bad Unqueue burst %S" b))
      | _ -> Error "Unqueue takes at most one argument"

    method! wants_task = true

    method! run_task =
      if self#batch_size <= 1 then
        let rec loop i did =
          if i >= burst then did
          else
            match self#input_pull 0 with
            | None -> did
            | Some p ->
                moved <- moved + 1;
                self#output 0 p;
                loop (i + 1) true
        in
        loop 0 false
      else begin
        (* Batch mode: one upstream pull request, one downstream
           transfer, sized by the smaller of burst and batch. *)
        let want = min burst self#batch_size in
        let buf = self#scratch self#batch_size in
        let dst = if want = Array.length buf then buf else Array.sub buf 0 want in
        let got = self#input_pull_batch 0 dst in
        if got = 0 then false
        else begin
          moved <- moved + got;
          self#output_batch 0 (self#sub_batch dst got);
          true
        end
      end

    method! stats = [ ("moved", moved) ]
  end

(* RED dropping ahead of a Queue. Like Click, the element locates its
   downstream Queue(s) at initialization time and computes the EWMA of
   their total length on each packet. *)
class red name =
  object (self)
    inherit E.base name
    val mutable min_thresh = 5
    val mutable max_thresh = 50
    val mutable max_p = 0.02
    val mutable avg = 0.0
    val mutable drops = 0
    val mutable queues : E.t list = []
    val rng = ref 0
    method class_name = "RED"
    method! processing = "a/a"

    method! configure config =
      rng := lcg_seed_of_name name;
      match Args.split config with
      | [ mn; mx; p ] -> (
          match (Args.parse_int mn, Args.parse_int mx, float_of_string_opt p)
          with
          | Some mn, Some mx, Some p when 0 <= mn && mn <= mx && p >= 0.0 ->
              min_thresh <- mn;
              max_thresh <- mx;
              max_p <- p;
              Ok ()
          | _ -> Error "RED expects MIN_THRESH, MAX_THRESH, MAX_P")
      | [] -> Ok ()
      | _ -> Error "RED expects MIN_THRESH, MAX_THRESH, MAX_P"

    method! initialize ctx =
      (* Breadth-first search downstream for Queue elements. *)
      let graph = ctx.E.ic_graph in
      let seen = Hashtbl.create 16 in
      let rec bfs frontier acc =
        match frontier with
        | [] -> acc
        | i :: rest ->
            if Hashtbl.mem seen i then bfs rest acc
            else begin
              Hashtbl.add seen i ();
              let e = ctx.E.ic_element i in
              if String.equal e#class_name "Queue" && i <> ctx.E.ic_index then
                bfs rest (e :: acc)
              else
                let next =
                  List.map (fun (_, j, _) -> j) (Oclick_graph.Router.outputs_of graph i)
                in
                bfs (next @ rest) acc
            end
      in
      queues <- bfs [ ctx.E.ic_index ] [];
      if queues = [] then Error "RED found no downstream Queue" else Ok ()

    method private queue_length =
      List.fold_left
        (fun acc q ->
          match List.assoc_opt "length" q#stats with
          | Some n -> acc + n
          | None -> acc)
        0 queues

    method private should_drop =
      let w = 0.25 in
      avg <- ((1.0 -. w) *. avg) +. (w *. float_of_int self#queue_length);
      if avg < float_of_int min_thresh then false
      else if avg >= float_of_int max_thresh then true
      else begin
        let fraction =
          (avg -. float_of_int min_thresh)
          /. float_of_int (max_thresh - min_thresh)
        in
        lcg_float rng < max_p *. fraction
      end

    method! push _ p =
      if self#should_drop then begin
        drops <- drops + 1;
        self#drop ~reason:"RED early drop" p
      end
      else self#output 0 p

    method! stats = [ ("drops", drops) ]
  end

let register () =
  def "Discard" ~ports:"1/0" ~processing:"a/a" (fun n -> (new discard n :> E.t));
  def "Idle" ~ports:"-/-" ~processing:"a/a" (fun n -> (new idle n :> E.t));
  def "Counter" (fun n -> (new counter n :> E.t));
  def "Tee" ~ports:"1/1-" ~processing:"h/h" (fun n -> (new tee n :> E.t));
  def "StaticSwitch" ~ports:"1/-" ~processing:"h/h" (fun n ->
      (new static_switch n :> E.t));
  def "PaintSwitch" ~ports:"1/-" ~processing:"h/h" (fun n ->
      (new paint_switch n :> E.t));
  def "Print" (fun n -> (new print n :> E.t));
  def "Queue" ~ports:"1/1" ~processing:"h/l" (fun n -> (new queue n :> E.t));
  def "Unqueue" ~ports:"1/1" ~processing:"l/h" (fun n ->
      (new unqueue n :> E.t));
  def "RED" (fun n -> (new red n :> E.t))
