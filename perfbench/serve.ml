(* The serving path's layer probe: an in-process daemon (Server,
   nproc-1 worker domains) on one end of a Unix socketpair, driven by
   one Client connection under open-loop load: seeded Poisson arrivals
   at a fixed absolute rate, one sender thread and one receiver thread.
   ~80% of requests are byte-identical clones from a 64-contract hot
   set filled during set-up (cache hits); ~20% are never-seen
   contracts. It runs in every traced run; it is not an end-to-end
   workload (see BENCHMARK.md). *)

open Common
module G = Ethainter_corpus.Generator
module P = Ethainter_core.Pipeline
module S = Ethainter_core.Scheduler
module Server = Ethainter_serve.Server
module Client = Ethainter_serve.Client
module Proto = Ethainter_serve.Proto
module Frame = Ethainter_serve.Frame
module Hex = Ethainter_word.Hex

(* Offered load, requests per second: an absolute number, never derived
   from a measurement taken in the run. About a seventh of the daemon's
   capacity on this mix with one worker, so queueing does not amplify
   the machine's slow seconds. *)
let rate = 250.0

let hot_share = 0.8
let hot_size = 64

(* Deep enough that a burst or a pause of the machine queues rather
   than sheds at this rate; the daemon's --queue-depth. *)
let queue_depth = 4096

type contract = { code : string; hex : string }

type inputs = {
  hot : contract array;
  novel : contract array;      (* one per novel request, in order *)
  warm : contract array;       (* warm-up, disjoint from both *)
  rtt_novel : contract array;  (* window-1 probe misses *)
  schedule : (float * [ `Hot of int | `Novel of int ]) array;
}

(* Generated before set-up. Seeds of the sets are disjoint, and a set is
   deduplicated against every earlier one. *)
let inputs ~seed ~seconds ~n_warm ~n_rtt =
  let st = rng seed in
  let t = ref 0.0 and sched = ref [] and n_novel = ref 0 in
  while
    t := !t +. exp_gap st rate;
    !t < seconds
  do
    if Random.State.float st 1.0 < hot_share then
      sched := (!t, `Hot (Random.State.int st hot_size)) :: !sched
    else begin
      sched := (!t, `Novel !n_novel) :: !sched;
      incr n_novel
    end
  done;
  let seen = Hashtbl.create 4096 in
  let fresh s n =
    Array.map
      (fun (i : G.instance) -> { code = i.G.i_runtime; hex = Hex.encode i.G.i_runtime })
      (mainnet ~seen ~seed:s n)
  in
  let hot = fresh ((seed * 8) + 1) hot_size in
  let warm = fresh ((seed * 8) + 2) n_warm in
  let rtt_novel = fresh ((seed * 8) + 3) n_rtt in
  let novel = fresh ((seed * 8) + 4) !n_novel in
  { hot; novel; warm; rtt_novel; schedule = Array.of_list (List.rev !sched) }

let target inp = function `Hot i -> inp.hot.(i) | `Novel j -> inp.novel.(j)

type daemon = {
  server : Server.t;
  client : Client.t;
  reader : Thread.t;
  sfd : Unix.file_descr;
}

(* Pipelined requests, all answered before it returns. *)
let analyze_all client (cs : contract array) =
  let ids = Array.map (fun c -> Client.send_analyze client ~hex:c.hex ()) cs in
  Array.map (fun id -> Client.recv_for client id) ids

let start ~workers inp =
  P.cache_clear ();
  let server = Server.create ~workers ~queue_depth () in
  let sfd, cfd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let reader = Thread.create (fun () -> Server.serve_connection server sfd) () in
  let client = Client.of_fd cfd in
  ignore (analyze_all client inp.warm);
  ignore (analyze_all client inp.hot);
  { server; client; reader; sfd }

let stop d =
  Client.close d.client;
  Thread.join d.reader;
  Unix.close d.sfd;
  Server.stop d.server

type window = {
  responses : (int * float * Client.response) array;  (* index, latency s *)
  missing : int;
  late : float array;    (* send time minus due time, s *)
  depth_max : int;
  shed : int;
}

(* One open-loop window over [sched]. The sender sleeps until each due
   time; latency runs from the due time, so a stall charges every
   request it delays. *)
let open_loop d (inp : inputs) sched =
  let n = Array.length sched in
  let c = d.client in
  let pool = Server.pool d.server in
  let shed0 = (S.Pool.stats pool).S.Pool.p_shed in
  let recvd = ref [] and count = Atomic.make 0 in
  let receiver =
    Thread.create
      (fun () ->
        try
          while Atomic.get count < n do
            let id, r = Client.recv c in
            recvd := (id, now (), r) :: !recvd;
            Atomic.incr count
          done
        with Client.Protocol _ -> ())
      ()
  in
  let ids = Array.make n 0 and late = Array.make n 0.0 in
  let depth_max = ref 0 in
  let t0 = now () +. 0.005 in
  Array.iteri
    (fun i (due, which) ->
      let due = t0 +. due in
      let wait = due -. now () in
      if wait > 0.0 then Unix.sleepf wait;
      let sent = now () in
      late.(i) <- sent -. due;
      ids.(i) <- Client.send_analyze c ~hex:(target inp which).hex ();
      if !Trace.on then begin
        Trace.record ~id:(Trace.fresh ()) ~req:i "client.send" sent (now ());
        if i land 15 = 0 then
          depth_max := max !depth_max (S.Pool.stats pool).S.Pool.p_depth
      end)
    sched;
  let deadline = now () +. 60.0 in
  while Atomic.get count < n && now () < deadline do Thread.delay 0.005 done;
  if Atomic.get count < n then Client.close c;
  Thread.join receiver;
  let index = Hashtbl.create n in
  Array.iteri (fun i id -> Hashtbl.replace index id i) ids;
  let responses =
    List.rev !recvd
    |> List.filter_map (fun (id, at, r) ->
           match Hashtbl.find_opt index id with
           | None -> None
           | Some i ->
               let due = t0 +. fst sched.(i) in
               if !Trace.on then
                 Trace.record ~id:(Trace.fresh ()) ~req:i "serve.request" due at;
               Some (i, at -. due, r))
    |> Array.of_list
  in
  { responses; missing = n - Array.length responses; late;
    depth_max = !depth_max;
    shed = (S.Pool.stats pool).S.Pool.p_shed - shed0 }

(* Verdicts of a direct, uncached Pipeline.run of every bytecode the
   windows sent (the daemon's own cache must not answer for it). *)
let expected inp sched =
  let codes = Hashtbl.create 4096 in
  Array.iter (fun (_, w) -> Hashtbl.replace codes (target inp w).code ()) sched;
  let codes = Hashtbl.fold (fun c () acc -> c :: acc) codes [] in
  let tbl = Hashtbl.create 4096 in
  List.iter2 (fun c r -> Hashtbl.replace tbl c r) codes (reference_verdicts codes);
  tbl

(* Failed operations of a window: missing, refused, failed or wrong. *)
let failures inp sched expect w =
  Array.fold_left
    (fun n (i, _, r) ->
      match r with
      | Client.Result r
        when r.P.error = None && (not r.P.timed_out)
             && normalize r
                = Hashtbl.find expect (target inp (snd sched.(i))).code ->
          n
      | _ -> n + 1)
    w.missing w.responses

let per_call iters name f =
  let t0 = now () in
  Trace.span name (fun _ ->
      for _ = 1 to iters do f () done);
  1e6 *. (now () -. t0) /. float_of_int iters

(* Window-1 round trips and in-process costs of the serving path's
   layers, on the hot set (cached) and never-seen contracts. *)
let probes d inp ~iters =
  let c = d.client in
  let rtt name (cs : contract array) reps =
    Array.init reps (fun i ->
        let t0 = now () in
        Trace.span ~req:i name (fun _ ->
            ignore (Client.analyze c ~hex:cs.(i mod Array.length cs).hex ()));
        now () -. t0)
  in
  let hit = rtt "serve.rtt_hit" inp.hot (2 * Array.length inp.rtt_novel) in
  let miss = rtt "serve.rtt_miss" inp.rtt_novel (Array.length inp.rtt_novel) in
  let hot = inp.hot.(0) in
  let req = P.request (P.Runtime hot.code) in
  let res = P.run req in
  let analyze =
    { Proto.a_hex = hot.hex; a_cfg = Ethainter_core.Config.default;
      a_timeout_s = 120.0 }
  in
  let codec () =
    let f = Frame.encode ~kind:Proto.req_analyze ~id:7 (Proto.encode_analyze analyze) in
    (match Frame.decode f ~pos:0 with
    | Ok (_, _, p, _) -> ignore (Proto.decode_analyze p)
    | Error _ -> failwith "frame");
    let g = Frame.encode ~kind:Proto.resp_result ~id:7 (P.encode_result res) in
    match Frame.decode g ~pos:0 with
    | Ok (_, _, p, _) -> ignore (P.decode_result p)
    | Error _ -> failwith "frame"
  in
  [ metric "cache.hit_us" "us" (per_call iters "cache.hit" (fun () -> ignore (P.run req)));
    metric "crypto.key_us" "us"
      (per_call iters "crypto.key" (fun () ->
           ignore (Ethainter_crypto.Keccak.hash hot.code)));
    metric "wire.codec_us" "us" (per_call iters "wire.codec" codec);
    metric "serve.rtt_hit_us" "us" (1e6 *. median hit);
    metric "serve.rtt_miss_us" "us" (1e6 *. median miss) ]

let window_layers d w =
  let st = Client.stats d.client in
  [ metric "server.service_p50_us" "us" (1e3 *. get "latency_p50_ms" st);
    metric "pool.depth_max" "count" (float_of_int w.depth_max);
    metric "pool.shed" "count" (float_of_int w.shed);
    metric "gen.late_p99_ms" "ms" (1e3 *. quantile w.late 0.99) ]

(* The serving path's layer metrics, for a traced run: one traced
   open-loop window of [seconds], then the window-1 and in-process
   probes. Returns the metrics, the failed and the attempted requests
   (every response is checked against a direct uncached run). *)
let layers ~seed (sz : size) =
  let n_rtt = if sz.tiny then 10 else 100 in
  let inp = inputs ~seed ~seconds:sz.seconds ~n_warm:(if sz.tiny then 8 else 60) ~n_rtt in
  let d = start ~workers:pool_workers inp in
  let w, (fe, be) = cache_window (fun () -> open_loop d inp inp.schedule) in
  let n = Array.length inp.schedule in
  let l =
    cache_metrics ~items:n [ fe ] [ be ]
    |> List.map (fun m -> { m with name = "serve." ^ m.name })
  in
  let l = l @ window_layers d w @ probes d inp ~iters:(if sz.tiny then 50 else 1000) in
  stop d;
  (l, failures inp inp.schedule (expected inp inp.schedule) w, n)
