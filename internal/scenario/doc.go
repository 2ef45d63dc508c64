// Package scenario is the end-to-end fault harness for loopmapd. Its one
// test, TestScenario, runs a fixed grid of scenarios, one row each:
//
//   - crash: SIGKILL a durable daemon under concurrent load, restart it
//     from the same store and require every acknowledged answer warm and
//     byte-identical;
//   - cluster: a 3-shard cluster grows to 4 under load, then loses its
//     busiest shard; ownership, hop budget, keyspace movement and warm
//     failover are checked against the client's own rendezvous hash;
//   - partition: an in-process 4-shard cluster behind a seeded TCP chaos
//     fabric; after every heal no acknowledged answer is lost and every
//     owner/standby digest converges;
//   - diskchaos: seeded disk-fault plans against the tiered store and a
//     two-shard cluster (read-only latch, scrub quarantine, anti-entropy
//     repair, zero acknowledged-durable loss);
//   - tiered: fill the disk tier past RAM, SIGKILL inside a compaction,
//     and require an O(WAL-tail) restart with zero recomputations.
//
// Every row has a fixed seed; a failing row logs it, along with any
// generated fault plan, and rerunning it reproduces the plan. Rows that
// start loopmapd subprocesses skip under -short.
//
//	go test -race -v -run TestScenario ./internal/scenario
package scenario
