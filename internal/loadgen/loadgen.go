// Package loadgen drives workloads against the online data store with an
// open-loop saturation harness (openloop.go): a deterministic arrival
// process (arrival.go), Zipf key skew over sharded partitions, and an
// unbounded client population whose offered load is decoupled from the
// completion rate — the tool for finding the saturation knee.
package loadgen
