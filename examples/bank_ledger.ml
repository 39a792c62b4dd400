(* A transaction-style client on the raw LD interface (paper §3: ARUs
   efficiently support "transaction-based systems as direct disk system
   clients").

   A toy ledger stores one account balance per block.  A transfer
   debits one block and credits another — inside one ARU, so a crash
   can never lose or create money.  Durability (the D in ACID) stays
   with the client, exactly as the paper prescribes: a transfer is
   durable only after Flush.

     dune exec examples/bank_ledger.exe *)

module Geometry = Lld_disk.Geometry
module Fault = Lld_disk.Fault
module Disk = Lld_disk.Disk
module Clock = Lld_sim.Clock
module Types = Lld_core.Types
module Lld = Lld_core.Lld
module Summary = Lld_core.Summary
module Blk = Lld_util.Blk

type ledger = { lld : Lld.t; accounts : Types.Block_id.t array }

let balance_of_block b = Blk.get_u32_bytes b 0

let block_of_balance v =
  let b = Bytes.make 4096 '\000' in
  Blk.set_u32_bytes b 0 v;
  b

let create lld ~accounts ~opening_balance =
  let list = Lld.new_list lld () in
  let blocks =
    Array.init accounts (fun _ ->
        let b = Lld.new_block lld ~list ~pred:Summary.Head () in
        Lld.write lld b (block_of_balance opening_balance);
        b)
  in
  Lld.flush lld;
  { lld; accounts = blocks }

let balance t i = balance_of_block (Lld.read t.lld t.accounts.(i))

let total t =
  Array.fold_left (fun acc b -> acc + balance_of_block (Lld.read t.lld b)) 0
    t.accounts

(* Debit and credit atomically; the crash in the middle (injected by the
   caller via the fault plan) can never half-apply. *)
let transfer t ~from_ ~to_ ~amount =
  let aru = Lld.begin_aru t.lld in
  let read b = balance_of_block (Lld.read t.lld ~aru b) in
  let debit = read t.accounts.(from_) in
  if debit < amount then begin
    Lld.abort_aru t.lld aru;
    Error `Insufficient_funds
  end
  else begin
    Lld.write t.lld ~aru t.accounts.(from_) (block_of_balance (debit - amount));
    Lld.write t.lld ~aru
      t.accounts.(to_)
      (block_of_balance (read t.accounts.(to_) + amount));
    Lld.end_aru t.lld aru;
    Ok ()
  end

let () =
  let clock = Clock.create () in
  let disk = Disk.create ~clock Geometry.small in
  let lld = Lld.create disk in
  let bank = create lld ~accounts:8 ~opening_balance:1000 in
  Printf.printf "opening total: %d\n" (total bank);

  (* a burst of transfers, then a power failure mid-burst *)
  let ok = ref 0 in
  (try
     for i = 0 to 199 do
       (match
          transfer bank ~from_:(i mod 8) ~to_:((i + 3) mod 8)
            ~amount:((i mod 7) + 1)
        with
       | Ok () -> incr ok
       | Error `Insufficient_funds -> ());
       (* group commits reach the disk every 25 transfers *)
       if i mod 25 = 24 then Lld.flush lld;
       if i = 120 then
         Fault.schedule_crash (Disk.fault disk) (Fault.After_writes 0)
     done;
     Lld.flush lld
   with Fault.Crashed -> Printf.printf "power failed after %d transfers!\n" !ok);

  let lld, _report = Lld.recover disk in
  let bank = { bank with lld } in
  Printf.printf "recovered total: %d (money conserved: %b)\n" (total bank)
    (total bank = 8000);
  Array.iteri
    (fun i _ -> Printf.printf "  account %d: %d\n" i (balance bank i))
    bank.accounts
