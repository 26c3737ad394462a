(* Alignment support and the multi-router RouterLink (paper §7). *)

open Prelude

(* Align(MODULUS, OFFSET): copies packet data so its offset within the
   machine word satisfies the constraint. The copy is exactly the cost
   click-align works to avoid inserting unnecessarily (§7.1). *)
class align name =
  object (self)
    inherit E.base name
    val mutable modulus = 4
    val mutable offset = 0
    val mutable copies = 0
    method class_name = "Align"

    method! configure config =
      match Args.split config with
      | [ m; o ] -> (
          match (Args.parse_int m, Args.parse_int o) with
          | Some m, Some o when m > 0 && o >= 0 && o < m ->
              modulus <- m;
              offset <- o;
              Ok ()
          | _ -> Error "Align expects MODULUS, OFFSET with 0 <= OFFSET < MODULUS")
      | _ -> Error "Align expects MODULUS, OFFSET"

    method private realign p =
      if Packet.data_offset p mod modulus <> offset then begin
        Packet.realign p ~modulus ~offset;
        copies <- copies + 1;
        if not lean_work then self#charge (Hooks.W_copy (Packet.length p))
      end

    method! push _ p =
      self#realign p;
      self#output 0 p

    method! pull _ =
      match self#input_pull 0 with
      | Some p ->
          self#realign p;
          Some p
      | None -> None

    method! stats = [ ("copies", copies) ]
  end

(* AlignmentInfo: a pure information element; click-align appends it so
   elements can learn what alignment to expect. It has no ports and the
   runtime accepts any configuration. *)
class alignment_info name =
  object
    inherit E.base name
    method class_name = "AlignmentInfo"
    method! port_count = "0/0"
    method! configure _ = Ok ()
  end

(* RouterLink: the inter-router connection marker emitted by
   click-combine (paper §7.2). At run time it is a transparent wire. *)
class router_link name =
  object (self)
    inherit E.base name
    method class_name = "RouterLink"
    method! configure _ = Ok ()
    method! push _ p = self#output 0 p
    method! pull _ = self#input_pull 0
  end

(* Stall(SPIN_MS [, AFTER n]): a transparent wire that wedges the
   calling thread once — a busy-wait of SPIN_MS wall-clock milliseconds
   when the AFTER-th packet passes (default: the first). The test
   subject for the multi-domain watchdog: placing it in one shard turns
   that shard into a deliberately stalled domain. *)
class stall name =
  object (self)
    inherit E.base name
    val mutable spin_ms = 100
    val mutable after = 1
    val mutable seen = 0
    val mutable spun = false
    method class_name = "Stall"
    method! processing = "h/h"

    method! configure config =
      let positional, keywords = parse_positional_and_keywords config in
      let ms_ok =
        match positional with
        | [] -> Ok ()
        | [ ms ] -> (
            match Args.parse_int ms with
            | Some m when m >= 0 ->
                spin_ms <- m;
                Ok ()
            | _ -> Error (Printf.sprintf "bad Stall spin %S (ms >= 0)" ms))
        | _ -> Error "Stall expects SPIN_MS and optional AFTER n"
      in
      match ms_ok with
      | Error _ as e -> e
      | Ok () ->
          List.fold_left
            (fun acc (k, v) ->
              match acc with
              | Error _ -> acc
              | Ok () -> (
                  match k with
                  | "AFTER" -> (
                      match Args.parse_int v with
                      | Some n when n >= 1 ->
                          after <- n;
                          Ok ()
                      | _ ->
                          Error
                            (Printf.sprintf "bad Stall AFTER %S (integer >= 1)"
                               v))
                  | _ -> Error (Printf.sprintf "Stall: unknown keyword %s" k)))
            (Ok ()) keywords

    method! push _ p =
      seen <- seen + 1;
      if (not spun) && seen >= after then begin
        spun <- true;
        let until =
          Unix.gettimeofday () +. (float_of_int spin_ms /. 1000.0)
        in
        while Unix.gettimeofday () < until do
          ()
        done
      end;
      self#output 0 p

    method! stats = [ ("seen", seen); ("spun", (if spun then 1 else 0)) ]
  end

let register () =
  def "Align" (fun n -> (new align n :> E.t));
  def "AlignmentInfo" ~ports:"0/0" (fun n -> (new alignment_info n :> E.t));
  def "RouterLink" (fun n -> (new router_link n :> E.t));
  def "Stall" (fun n -> (new stall n :> E.t))
