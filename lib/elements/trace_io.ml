(* Trace I/O elements: replay a recorded trace into a configuration, or
   record what flows past into a trace file. *)

open Prelude
module Trace = Oclick_packet.Trace

(* FromTrace(FILE [, LOOP]): a task source replaying a trace file in
   timestamp order, one packet per scheduler quantum. *)
class from_trace name =
  object (self)
    inherit E.base name
    val mutable path = ""
    val mutable looping = false
    val mutable pending : (int * Packet.t) list = []
    val mutable original : (int * Packet.t) list = []
    val mutable replayed = 0
    method class_name = "FromTrace"
    method! port_count = "0/1"
    method! processing = "h/h"

    method! configure config =
      match Args.split config with
      | [ f ] ->
          path <- f;
          Ok ()
      | [ f; l ] -> (
          match Args.parse_bool l with
          | Some b ->
              path <- f;
              looping <- b;
              Ok ()
          | None -> Error "FromTrace: bad LOOP flag")
      | _ -> Error "FromTrace expects FILE [, LOOP]"

    method! initialize _ctx =
      match
        let ic = open_in_bin path in
        let len = in_channel_length ic in
        let s = really_input_string ic len in
        close_in ic;
        Trace.of_string s
      with
      | Ok packets ->
          original <- packets;
          pending <- packets;
          Ok ()
      | Error e -> Error e
      | exception Sys_error e -> Error e

    method! wants_task = true

    method! run_task =
      match pending with
      | (_, p) :: rest ->
          pending <- rest;
          if looping && rest = [] then
            pending <- List.map (fun (t, p) -> (t, Packet.clone p)) original;
          replayed <- replayed + 1;
          self#output 0 p;
          true
      | [] -> false

    method! stats = [ ("replayed", replayed) ]
  end

(* ToTrace(FILE): record passing packets (with their arrival order as
   timestamps) and pass them through. The file is opened once and each
   line is appended and flushed, so the trace on disk is always complete
   without rewriting the whole file per packet (the old behaviour, which
   also kept the entire trace buffered in memory for the router's
   lifetime). *)
class to_trace name =
  object (self)
    inherit E.simple_action name
    val mutable path = ""
    val mutable chan : out_channel option = None
    val line = Buffer.create 256
    val mutable recorded = 0
    method class_name = "ToTrace"

    method! configure config =
      match Args.split config with
      | [ f ] ->
          (match chan with
          | Some oc ->
              close_out oc;
              chan <- None
          | None -> ());
          path <- f;
          Ok ()
      | _ -> Error "ToTrace expects FILE"

    method private channel =
      match chan with
      | Some oc -> oc
      | None ->
          let oc = open_out_bin path in
          output_string oc Trace.header;
          output_char oc '\n';
          flush oc;
          chan <- Some oc;
          oc

    method private inplace p =
      let ts = (Packet.anno p).Packet.timestamp_ns in
      let ts = if ts > 0 then ts else recorded in
      Buffer.clear line;
      Trace.append_packet line ts p;
      recorded <- recorded + 1;
      let oc = self#channel in
      Buffer.output_buffer oc line;
      flush oc;
      E.V_keep

    method! stats = [ ("recorded", recorded) ]
  end

let register () =
  def "FromTrace" ~ports:"0/1" ~processing:"h/h" (fun n ->
      (new from_trace n :> E.t));
  def "ToTrace" (fun n -> (new to_trace n :> E.t))
