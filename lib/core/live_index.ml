module Vec = Lld_util.Vec

type t = {
  seg_blocks : int Vec.t array; (* per segment: live block ids, unordered *)
  seg_of : int array; (* per block id: segment index, or -1 when not live *)
  pos : int array; (* per block id: position inside seg_blocks.(seg_of) *)
}

let create ~num_segments ~capacity =
  if num_segments <= 0 then
    invalid_arg "Live_index.create: num_segments must be positive";
  if capacity <= 0 then
    invalid_arg "Live_index.create: capacity must be positive";
  {
    seg_blocks = Array.init num_segments (fun _ -> Vec.create ());
    seg_of = Array.make capacity (-1);
    pos = Array.make capacity (-1);
  }

let live t seg = Vec.length t.seg_blocks.(seg)

(* Swap-with-last removal keeps every operation O(1). *)
let remove t ~block =
  let seg = t.seg_of.(block) in
  if seg >= 0 then begin
    let v = t.seg_blocks.(seg) in
    let p = t.pos.(block) in
    let last = Vec.length v - 1 in
    let moved = Vec.get v last in
    Vec.set v p moved;
    t.pos.(moved) <- p;
    Vec.truncate v last;
    t.seg_of.(block) <- -1;
    t.pos.(block) <- -1
  end

let add t ~seg ~block =
  if t.seg_of.(block) >= 0 then remove t ~block;
  let v = t.seg_blocks.(seg) in
  t.seg_of.(block) <- seg;
  t.pos.(block) <- Vec.length v;
  Vec.push v block

let blocks t seg = Vec.to_list t.seg_blocks.(seg)

let clear t =
  Array.iter (fun v -> Vec.truncate v 0) t.seg_blocks;
  Array.fill t.seg_of 0 (Array.length t.seg_of) (-1);
  Array.fill t.pos 0 (Array.length t.pos) (-1)
