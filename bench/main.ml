(* The benchmark harness: regenerates every table and figure from the
   paper's evaluation (see DESIGN.md's per-experiment index).

   Run everything:        dune exec bench/main.exe
   Run one section:       dune exec bench/main.exe -- fig9 fig12
   List the sections:     dune exec bench/main.exe -- --list
   Machine-readable out:  dune exec bench/main.exe -- batch --json
                          (writes BENCH_<section>.json per supporting
                          section, in the current directory)
   Quick smoke run:       dune exec bench/main.exe -- batch --smoke *)

let sections =
  [
    ("dispatch", Figures.dispatch);
    ("firewall", Figures.firewall);
    ("fig8", Figures.fig8);
    ("fig9", Figures.fig9);
    ("fig10", Figures.fig10);
    ("fig11", Figures.fig11);
    ("fig12", Figures.fig12);
    ("fig13", Figures.fig13);
    ("xform-scale", Figures.xform_scale);
    ("lookup", Figures.lookup_scaling);
    ("ablation", Figures.devirtualize_ablation);
    ("micro", Micro.run);
    ("batch", Batch.run);
    ("compile", Compile.run);
    ("obs", Obs.run);
    ("parallel", Parallel.run);
    ("overload", Overload.run);
    ("lpm", Lpm.run);
    ("fdd", Fdd.run);
    ("tune", Tune.run);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args =
    List.filter
      (function
        | "--json" ->
            Common.json := true;
            false
        | "--smoke" ->
            Common.smoke := true;
            false
        | _ -> true)
      args
  in
  match args with
  | [ "--list" ] -> List.iter (fun (n, _) -> print_endline n) sections
  | [] ->
      print_endline
        "oclick benchmark harness: reproducing the evaluation of \"Programming \
         Language Optimizations for Modular Router Configurations\" (ASPLOS 2002)";
      List.iter (fun (_, f) -> f ()) sections
  | names ->
      List.iter
        (fun n ->
          match List.assoc_opt n sections with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown section %S (try --list)\n" n;
              exit 1)
        names
