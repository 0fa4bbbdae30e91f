package main

// layerMetrics fills the per-layer metrics of a traced run. Span times are
// self times in µs per timed operation of the traced chunks, so the layer
// times of one workload add up to its mean call latency; see trace.go for
// the span nesting the subtractions follow.
func layerMetrics(ms map[string]metric, out *outcome) {
	w, u := &out.traced, &out.untraced
	ops := float64(w.ops)
	if ops == 0 {
		ops = 1
	}
	s, n := w.trace.sum, w.trace.n
	us := func(ns int64) float64 { return float64(ns) / 1e3 / ops }
	perOp := func(x float64) float64 { return x / ops }

	// The first server-side span under a client round trip is the
	// gateway's when there is one; backend spans then sit under forwards.
	entry, underForward := s[lBackend], int64(0)
	if out.gateway {
		entry, underForward = s[lGateway], s[lBackend]
	}
	var services int64
	for _, sl := range serviceLayers {
		services += s[sl.l]
	}

	ms["core.client_self_us"] = metric{us(s[lClient] - s[lRoundTrip]), "us"}
	ms["core.ops_failed"] = metric{float64(w.failed), "count"}
	ms["soap.roundtrip_us"] = metric{us(s[lRoundTrip]), "us"}
	ms["soap.transport_self_us"] = metric{us(s[lRoundTrip] - entry), "us"}

	ms["gateway.self_us"] = metric{us(s[lGateway] - s[lForward]), "us"}
	ms["gateway.forward_us"] = metric{us(s[lForward]), "us"}
	ms["gateway.hop_self_us"] = metric{us(s[lForward] - underForward), "us"}
	forwards := 0.0
	if n[lGateway] > 0 {
		forwards = float64(n[lForward]) / float64(n[lGateway])
	}
	ms["gateway.forwards_per_request"] = metric{forwards, "count"}
	ms["gateway.mount_s"] = metric{median(out.mount), "s"}
	ms["gateway.ops_failed"] = metric{float64(w.stats.gatewayErrors), "count"}

	ms["rpc.kernel_us"] = metric{us(s[lBackend] + s[lLoopback] - s[lProvider]), "us"}
	ms["rpc.middleware_us"] = metric{us(s[lProvider] - services), "us"}
	ms["rpc.loopback_us"] = metric{us(s[lLoopback]), "us"}
	ms["rpc.cache_hit_ratio"] = metric{w.stats.hitRatio(), "ratio"}
	ms["rpc.decode_fast_share"] = metric{w.stats.fastShare(), "ratio"}
	ms["rpc.ops_failed"] = metric{float64(w.stats.rpcErrors), "count"}

	for _, sl := range serviceLayers {
		self := s[sl.l]
		if sl.l == lJobSub {
			// submitBatch calls Globusrun through the loopback transport.
			self -= s[lLoopback]
		}
		ms[sl.name+".handler_us"] = metric{us(self), "us"}
	}

	ms["wal.append_p50_us"] = metric{out.walP50, "us"}
	ms["wal.append_p99_us"] = metric{out.walP99, "us"}
	ms["wal.appends_per_op"] = metric{perOp(float64(w.stats.walAppends)), "count"}
	ms["wal.bytes_per_op"] = metric{perOp(float64(w.stats.walBytes)), "B"}
	ms["wal.compactions"] = metric{float64(out.compactions), "count"}
	ms["wal.compact_ms"] = metric{float64(out.compactNS) / 1e6, "ms"}
	ms["wal.replay_s"] = metric{median(out.replay), "s"}

	gcFrac := 0.0
	if w.rt.totalCPU > 0 {
		gcFrac = w.rt.gcCPU / w.rt.totalCPU
	}
	ms["runtime.gc_cpu_fraction"] = metric{gcFrac, "ratio"}
	ms["runtime.gc_cycles_per_kop"] = metric{perOp(float64(w.rt.gcCycles)) * 1000, "count"}
	ms["warmup_s"] = metric{out.warmup.Seconds(), "s"}
	ms["samples"] = metric{float64(w.ops), "count"}

	// Tracing overhead: the traced chunks minus the untraced baseline's
	// chunks they alternate with, which ran the same operations on a stack
	// without any wrapper.
	ms["overhead.throughput_rps"] = metric{w.throughput() - u.throughput(), "1/s"}
	ms["overhead.p50_ms"] = metric{median(w.chunkP50) - median(u.chunkP50), "ms"}
	ms["overhead.p99_ms"] = metric{median(w.chunkP99) - median(u.chunkP99), "ms"}
	ms["overhead.cpu_us_per_op"] = metric{w.cpuPerOp() - u.cpuPerOp(), "us"}
	ms["overhead.alloc_kb_per_op"] = metric{w.allocPerOp() - u.allocPerOp(), "KiB"}
}
