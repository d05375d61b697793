(* Benchmark entry point: one workload per process.

     main.exe --workload sweep|stream --seed N --seconds S
              --trace 0|1 [--tiny]

   With --trace 0 it measures the workload untraced and reports the
   end-to-end metrics. With --trace 1 it runs the workload's traced
   pass (and its untraced twin, for the overhead and the verdict
   comparison), then the layer probes of the other workload and of the
   serving path, and reports every per-layer metric. The last line of
   standard output is the JSON result; the exit code is 1 when any
   operation failed. *)

open Common

let usage () =
  prerr_endline
    "usage: main.exe --workload sweep|stream --seed N --seconds S \
     --trace 0|1 [--tiny]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0
  and traced = ref false and tiny = ref false in
  let rec parse = function
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := int_of_string v; parse r
    | "--seconds" :: v :: r -> seconds := float_of_string v; parse r
    | "--trace" :: v :: r -> traced := (v = "1"); parse r
    | "--tiny" :: r -> tiny := true; parse r
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let sz = { seconds = !seconds; tiny = !tiny } in
  let probe_sz = { seconds = min 3.0 (!seconds /. 4.0); tiny = !tiny } in
  let seed = !seed and traced = !traced in
  mkdir_p out_dir;
  let workdir = Filename.concat out_dir (Printf.sprintf "work-%d" (Unix.getpid ())) in
  let own, probes =
    match !workload with
    | "sweep" ->
        ( (fun () -> Sweep.run ~seed ~traced sz),
          [ (fun () -> Serve.layers ~seed probe_sz);
            (fun () -> Stream.layers ~seed ~workdir probe_sz) ] )
    | "stream" ->
        ( (fun () -> Stream.run ~seed ~traced ~workdir sz),
          [ (fun () -> Sweep.layers ~seed probe_sz);
            (fun () -> Serve.layers ~seed probe_sz) ] )
    | _ -> usage ()
  in
  let k0 = keccak_mb_s () in
  let o = Fun.protect ~finally:(fun () -> rm_rf workdir) own in
  let k1 = keccak_mb_s () in
  let e2e = o.e2e @ [ metric "peak_rss_mb" "MiB" (peak_rss_mb ()) ] in
  let o =
    if not traced then o
    else begin
      Trace.on := true;
      let probed =
        List.map (fun p -> Fun.protect ~finally:(fun () -> rm_rf workdir) p) probes
      in
      Trace.write
        (Filename.concat out_dir (Printf.sprintf "trace-%s.jsonl" !workload));
      List.fold_left
        (fun o (l, failed, attempted) ->
          { o with layers = o.layers @ l; failed = o.failed + failed;
                   attempted = o.attempted + attempted })
        o probed
      |> fun o ->
      { o with
        layers =
          o.layers
          @ [ metric "machine.keccak_mb_s" "MB/s" k0;
              metric "machine.keccak_mb_s_after" "MB/s" k1 ] }
    end
  in
  let shown = if traced then o.layers else e2e in
  Printf.printf "workload %s seed %d traced %b\n" !workload seed traced;
  List.iter (fun (k, v) -> Printf.printf "  %-28s %s\n" k v) o.notes;
  Printf.printf "  %-28s %.2f / %.2f MB/s\n" "keccak before/after" k0 k1;
  List.iter
    (fun m -> Printf.printf "  %-28s %14.4f %s\n" m.name m.value m.unit_)
    shown;
  Printf.printf "  attempted %d failed %d\n" o.attempted o.failed;
  let correct = o.failed = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" m.name
              (if Float.is_finite m.value then m.value else 0.0) m.unit_)
          shown));
  exit (if correct then 0 else 1)
