(* The benchmark's OCaml side, called by perfbench/run.py:

     pb gen WORKLOAD SEED SECONDS DIR   write the plan's inputs and plan.tsv
     pb client SOCKET OUT FILE...       one closed-loop daemon client
     pb ref DIR FILE:BUGS...            reference results and the oracle
     pb layers DIR SOCKET SPANS FILE... the traced per-layer pass

   [client] is a closed-loop caller of [astreed], like a loop of
   [astree --connect] invocations: it sends one request, waits for the
   reply, then sends the next, over one connection. *)

module C = Astree_core
module F = Astree_frontend
module Srv = Astree_server
module Oracle = Astree_conc.Oracle

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Generates and writes the inputs [gen_repeats] times and prints the
   median seconds of one round: the input-preparation part of set-up.
   A fresh process pays for growing its heap on the first round, and
   page faults cost a varying amount on a shared VM; later rounds reuse
   the heap and time only generation and writing. *)
let gen_repeats = 5

let gen workload seed seconds dir =
  let requests = Plan.requests_for ~workload ~seconds in
  let times =
    List.init gen_repeats (fun _ ->
        let t0 = Unix.gettimeofday () in
        Plan.write (Plan.make ~workload ~seed ~requests) ~dir;
        Unix.gettimeofday () -. t0)
  in
  Printf.printf "%.9f\n" (List.nth (List.sort compare times) (gen_repeats / 2))

(* Requests are rendered before the loop; the loop times only the wire
   and the daemon.  Replies are decoded and written after the loop. *)
let client socket out files =
  let options = Srv.Service.default_options in
  let lines =
    List.map
      (fun f ->
        ( f,
          Srv.Client.analyze_request
            ~sources:[ (f, read_file f) ]
            ~main:"main" ~options () ))
      files
  in
  let fd = ref (Srv.Client.try_connect socket) in
  let replies =
    List.map
      (fun (f, line) ->
        let t0 = Unix.gettimeofday () in
        let res =
          match !fd with
          | None -> Error "cannot connect"
          | Some c -> Srv.Client.roundtrip c line
        in
        let dt = Unix.gettimeofday () -. t0 in
        (match res with
        | Error _ ->
            Option.iter Srv.Client.close !fd;
            fd := Srv.Client.try_connect socket
        | Ok _ -> ());
        (f, res, dt))
      lines
  in
  Option.iter Srv.Client.close !fd;
  let oc = open_out out in
  List.iteri
    (fun k (f, res, dt) ->
      let status, code, report =
        match res with
        | Error e -> ("io:" ^ String.map (fun c -> if c = '\t' then ' ' else c) e, -1, None)
        | Ok line ->
            let r = Srv.Client.decode line in
            (r.Srv.Client.r_status, r.Srv.Client.r_exit, r.Srv.Client.r_report)
      in
      let rpath = Printf.sprintf "%s.%d.json" out k in
      Option.iter
        (fun s ->
          let o = open_out_bin rpath in
          output_string o s;
          close_out o)
        report;
      Printf.fprintf oc "%s\t%s\t%d\t%.9f\t%s\n" f status code dt
        (if report = None then "-" else rpath))
    replies;
  close_out oc

let oracle_seeds = 4
let oracle_ticks = 200

(* The -j 1, cache-off reference every workload is checked against (the
   configuration the CLI resolves for a plain [astree --format json]),
   plus, for bug-injected inputs, the concrete errors [Interp.run] hits
   that no alarm covers.  One line per input:
   file, fingerprint, exit code, concrete errors hit, uncovered ones. *)
let reference dir specs =
  List.iter
    (fun spec ->
      let file, bugs =
        match String.split_on_char ':' spec with
        | [ f; b ] -> (f, b = "1")
        | _ -> (spec, false)
      in
      let sources = [ (file, read_file (Filename.concat dir file)) ] in
      let cfg = Srv.Service.config_of Srv.Service.default_options ~sources in
      let p, _ = C.Analysis.compile ~main:"main" sources in
      let r = Astree_robust.Degrade.analyze ~cfg p in
      let errors =
        if not bugs then []
        else
          List.init oracle_seeds (fun s ->
              match
                F.Interp.run ~max_ticks:oracle_ticks
                  ~input:(Oracle.input_of_seed (s + 1))
                  p
              with
              | F.Interp.Finished -> None
              | F.Interp.Error (k, l) -> Some (k, l))
          |> List.filter_map Fun.id |> List.sort_uniq compare
      in
      let uncovered = Oracle.uncovered r.C.Analysis.r_alarms errors in
      Printf.printf "%s\t%s\t%d\t%d\t%d\n%!" file
        (Astree_parallel.Merge.fingerprint r)
        (Srv.Report.exit_code r) (List.length errors) (List.length uncovered))
    specs

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "gen"; workload; seed; seconds; dir ] ->
      gen workload (int_of_string seed) (int_of_string seconds) dir
  | "client" :: socket :: out :: files -> client socket out files
  | "ref" :: dir :: specs -> reference dir specs
  | "layers" :: dir :: socket :: spans_out :: files ->
      Layers.run ~dir ~socket ~files ~spans_out
  | _ ->
      prerr_endline
        "usage: pb gen WORKLOAD SEED SECONDS DIR | pb client SOCKET OUT \
         FILE... | pb ref DIR FILE:BUGS... | pb layers DIR SOCKET SPANS FILE...";
      exit 2
