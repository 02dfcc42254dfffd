package main

// layered is one per-layer metric as BENCHMARK.json declares it. None
// is gated: they say where an end-to-end change came from.
type layered struct {
	name   string
	unit   string
	better string
}

// perLayerMetrics is every metric the traced pass prints, in ladder
// order: module by module down the stack a briefcase crosses, then the
// process, the machine and the ladder's own bookkeeping. The README
// says, row by row, which end-to-end metric each should move.
var perLayerMetrics = []layered{
	{"briefcase.encode_small_ns", "ns", "lower"},
	{"briefcase.decode_small_ns", "ns", "lower"},
	{"briefcase.decode_small_allocs", "count", "lower"},
	{"briefcase.encode_agent_ns", "ns", "lower"},
	{"briefcase.decode_agent_ns", "ns", "lower"},
	{"briefcase.peek_ns", "ns", "lower"},
	{"identity.sign_core_ns", "ns", "lower"},
	{"identity.verify_core_ns", "ns", "lower"},
	{"policy.eval_ns", "ns", "lower"},
	{"policy.charge_ns", "ns", "lower"},
	{"firewall.local_rtt_ns", "ns", "lower"},
	{"firewall.local_rtt_policy_ns", "ns", "lower"},
	{"firewall.local_rtt_allocs", "count", "lower"},
	{"firewall.inbound_ns", "ns", "lower"},
	{"firewall.inbound_calls_per_op", "count", "lower"},
	{"firewall.relay_frames_per_op", "count", "lower"},
	{"firewall.batch_frames_per_flush", "count", "higher"},
	{"firewall.delivered_per_op", "count", "lower"},
	{"firewall.forwarded_per_op", "count", "lower"},
	{"firewall.parked_per_op", "count", "lower"},
	{"simnet.tcp_rtt_ns", "ns", "lower"},
	{"simnet.tcp_send_ns", "ns", "lower"},
	{"simnet.mem_send_ns", "ns", "lower"},
	{"simnet.mem_send_agent_ns", "ns", "lower"},
	{"simnet.send_calls_per_op", "count", "lower"},
	{"cabinet.commit_ns", "ns", "lower"},
	{"cabinet.commit_group_ns", "ns", "lower"},
	{"cabinet.syncs_per_txn", "count", "lower"},
	{"frontier.add_ns", "ns", "lower"},
	{"frontier.claim_ns", "ns", "lower"},
	{"frontier.complete_ns", "ns", "lower"},
	{"frontier.add_wal_ns", "ns", "lower"},
	{"frontier.claim_wal_ns", "ns", "lower"},
	{"frontier.complete_wal_ns", "ns", "lower"},
	{"services.frontier_rpc_ns", "ns", "lower"},
	{"directory.bind_ns", "ns", "lower"},
	{"directory.lookup_ns", "ns", "lower"},
	{"directory.failover_lookup_ns", "ns", "lower"},
	{"directory.shard_load_max_over_min", "ratio", "lower"},
	{"vm.launch_ns", "ns", "lower"},
	{"agent.go_ns", "ns", "lower"},
	{"websim.generate_ns", "ns", "lower"},
	{"websim.fetch_ns", "ns", "lower"},
	{"websim.fetch_calls_per_op", "count", "lower"},
	{"webbot.crawl_ns_per_page", "ns", "lower"},
	{"webbot.robots_parse_ns", "ns", "lower"},
	{"linkmine.deploy_ns", "ns", "lower"},
	{"linkmine.stationary_ns", "ns", "lower"},
	{"linkmine.mobile_ns", "ns", "lower"},
	{"linkmine.fleet_boot_ns", "ns", "lower"},
	{"linkmine.virtual_stationary_s", "s", "lower"},
	{"linkmine.virtual_mobile_s", "s", "lower"},
	{"linkmine.virtual_speedup_pct", "%", "higher"},
	{"telemetry.rpc_overhead_pct", "%", "lower"},
	{"wrapper.meet_ns_per_wrapper", "ns", "lower"},
	{"proc.cpu_us_per_op", "us", "lower"},
	{"proc.op_p99_us", "us", "lower"},
	{"proc.gc_cycles", "count", "lower"},
	{"proc.gc_pause_total_us", "us", "lower"},
	{"proc.unpinned_ops_per_s", "1/s", "higher"},
	{"machine.ref_kernel_us", "us", "lower"},
	{"machine.nproc", "count", "higher"},
	{"machine.pinned_cpu", "cpu", "higher"},
	{"ladder.explained_share", "ratio", "higher"},
	{"ladder.unexplained_ns", "ns", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// layer records a per-layer metric under its declared unit; a name the
// table does not declare is a bug in the benchmark.
func (ms metrics) layer(name string, v float64) {
	for _, l := range perLayerMetrics {
		if l.name == name {
			ms.put(name, v, l.unit)
			return
		}
	}
	panic("taxperf: undeclared per-layer metric " + name)
}

// missingLayers lists the declared per-layer metrics ms lacks.
func (ms metrics) missingLayers() []string {
	var missing []string
	for _, l := range perLayerMetrics {
		if _, ok := ms[l.name]; !ok {
			missing = append(missing, l.name)
		}
	}
	return missing
}
