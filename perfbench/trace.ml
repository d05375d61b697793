(* In-memory spans recorded around the benchmark's own calls into the
   program's layers. Nothing inside the libraries is instrumented.
   Spans are kept in memory and written out when the run ends; a
   layer's self time is its span minus the time its children cover. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (* -1 for a root span *)
  req : int;     (* request / contract / block the span serves *)
}

let on = ref false
let spans : span list ref = ref []
let next = Atomic.make 0
let mu = Mutex.create ()

let fresh () = Atomic.fetch_and_add next 1

let record ~id ?(parent = -1) ?(req = -1) name start stop =
  if !on then begin
    Mutex.lock mu;
    spans := { id; name; start; stop; parent; req } :: !spans;
    Mutex.unlock mu
  end

(* [span name f] times [f id], where [id] is the parent for spans [f]
   records itself. Without tracing it is a plain call. *)
let span ?parent ?req name f =
  if not !on then f (-1)
  else begin
    let id = fresh () in
    let t0 = Common.now () in
    let r = f id in
    record ~id ?parent ?req name t0 (Common.now ());
    r
  end

(* Per name: count, mean duration and mean self time, in µs. *)
let summary () =
  let all = !spans in
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          ((s.stop -. s.start)
          +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    all;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = s.stop -. s.start in
      let self =
        d -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id)
      in
      let n, td, ts =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (n + 1, td +. d, ts +. self))
    all;
  Hashtbl.fold
    (fun name (n, td, ts) acc ->
      let k = float_of_int n in
      (name, n, 1e6 *. td /. k, 1e6 *. ts /. k) :: acc)
    by_name []
  |> List.sort compare

let self_us name =
  match List.find_opt (fun (n, _, _, _) -> n = name) (summary ()) with
  | Some (_, _, _, self) -> self
  | None -> 0.0

let mean_us name =
  match List.find_opt (fun (n, _, _, _) -> n = name) (summary ()) with
  | Some (_, _, d, _) -> d
  | None -> 0.0

(* One JSON object per span, then one per layer summary. *)
let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        {|{"id":%d,"name":"%s","start":%.6f,"end":%.6f,"parent":%d,"req":%d}|}
        s.id s.name s.start s.stop s.parent s.req;
      output_char oc '\n')
    (List.rev !spans);
  List.iter
    (fun (name, n, d, self) ->
      Printf.fprintf oc
        {|{"layer":"%s","spans":%d,"mean_us":%.3f,"self_us":%.3f}|} name n d
        self;
      output_char oc '\n')
    (summary ());
  close_out oc
