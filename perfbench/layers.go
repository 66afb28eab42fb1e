package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/mbuf"
	"repro/internal/obs"
	"repro/internal/wire"
)

// layerCatalog is every per-layer metric, in BENCHMARK.json order. A
// layer a workload bypasses reports 0 with no samples.
var layerCatalog = []struct{ name, unit string }{
	{"client.dial_us.p50", "us"}, {"client.dial_us.p99", "us"},
	{"client.send_us.p50", "us"}, {"client.send_us.p99", "us"},
	{"vclock.sync_offset_us", "us"},
	{"wire.encode_ns.16", "ns"}, {"wire.encode_ns.64", "ns"}, {"wire.encode_ns.512", "ns"},
	{"wire.encode_ns.1400", "ns"}, {"wire.encode_ns.4096", "ns"},
	{"wire.decode_ns.16", "ns"}, {"wire.decode_ns.64", "ns"}, {"wire.decode_ns.512", "ns"},
	{"wire.decode_ns.1400", "ns"}, {"wire.decode_ns.4096", "ns"},
	{"wire.bytes_per_delivery", "B"},
	{"transport.flush_batch.p50", "count"},
	{"transport.trunk_entries_per_batch", "count"},
	{"transport.trunk_dropped", "count"},
	{"transport.trunk_reconnects", "count"},
	{"core.ingest_ns.p50", "ns"}, {"core.ingest_ns.p99", "ns"},
	{"core.dispatch_ns.p99", "ns"}, {"core.enqueue_ns.p99", "ns"}, {"core.send_ns.p99", "ns"},
	{"core.deliver_lag_us.p50", "us"}, {"core.deliver_lag_us.p99", "us"},
	{"core.queue_drops", "count"}, {"core.abandoned", "count"},
	{"core.goroutines_per_session", "count/session"},
	{"core.quiesce_ms", "ms"},
	{"sched.fire_batch.p50", "count"}, {"sched.fire_batch.p99", "count"},
	{"sched.locks_per_delivery", "count/delivery"},
	{"sched.wakeups_per_s", "1/s"},
	{"sched.spurious_frac", "ratio"},
	{"sched.kick_elide_frac", "ratio"},
	{"sched.depth_max", "count"},
	{"scene.op_us.p50", "us"}, {"scene.op_us.p99", "us"},
	{"scene.op_us.move.p50", "us"}, {"scene.op_us.move.p99", "us"},
	{"scene.op_us.range.p50", "us"}, {"scene.op_us.range.p99", "us"},
	{"scene.op_us.radios.p50", "us"}, {"scene.op_us.radios.p99", "us"},
	{"scene.tick_us.p99", "us"},
	{"scene.view_rebuilds_per_op", "count"},
	{"linkmodel.drop_frac", "ratio"},
	{"mbuf.hit_frac", "ratio"},
	{"mbuf.live_after_close", "count"},
	{"runtime.allocs_per_delivery", "count/delivery"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.peak_rss_mb", "MB"},
	{"record.records_per_delivery", "count/delivery"},
	{"record.packets_per_commit", "count"},
	{"fidelity.lag_us.p50", "us"}, {"fidelity.lag_us.p99", "us"},
	{"fidelity.miss_frac", "ratio"},
	{"fidelity.breaches", "count"},
	{"gateway.shed_frac", "ratio"},
	{"gateway.late_frac", "ratio"},
	{"gateway.egress_depth_max", "count"},
	{"udp.write_us.p50", "us"},
	{"cluster.remote_entries_per_s", "1/s"},
	{"cluster.staleness_us", "us"},
	{"cluster.rep_errors", "count"},
	{"cluster.repl_lag_us.p50", "us"},
	{"gen.lag_us.p50", "us"}, {"gen.lag_us.p99", "us"},
	{"gen.lateness_samples", "count"},
	{"lateness.p99_us", "us"},
	{"run.lateness_us.p50", "us"}, {"run.lateness_us.p99", "us"},
	{"run.delivered_per_s", "1/s"},
	{"run.cpu_us_per_delivery", "us"},
	{"trace.spans", "count"},
	{"trace.spans_dropped", "count"},
	{"trace.overhead_cpu_frac", "ratio"},
	{"trace.send_to_deliver_us.p50", "us"}, {"trace.send_to_deliver_us.p99", "us"},
	{"trace.self_us.gen_send.p50", "us"},
	{"trace.self_us.deliver.p50", "us"},
	{"trace.self_us.scene_op.p50", "us"},
	{"trace.self_us.client_dial.p50", "us"},
	{"trace.self_us.udp_write.p50", "us"},
	{"trace.self_us.udp_read.p50", "us"},
	{"trace.self_us.quiesce.p50", "us"},
}

var layerNames = func() []string {
	out := make([]string, len(layerCatalog))
	for i, l := range layerCatalog {
		out[i] = l.name
	}
	return out
}()

func (b *bench) putLayer(name string, v float64, n uint64) {
	b.layer.put(name, layerUnit(name), v, n)
}

// parts are the emulator pieces a workload built; serverLayers reads
// their exported counters once the workload has quiesced.
type parts struct {
	servers []*core.Server
	pools   []*mbuf.Pool
	gws     []*gateway.Gateway
	clients []*core.Client // sync-offset sample
	scale   float64
	overTCP bool // client sessions cross the wire codec
	ops     int  // scene mutations issued
}

// serverLayers reads the program's own counters into per-layer metrics.
func (b *bench) serverLayers(p parts) {
	secs := b.trafficWall.Seconds()
	var st core.ServerStats
	var fireLocks, pushLocks, dispatched, wakeups, spurious, elided, kicked, misses uint64
	var fidP50, fidP99 time.Duration
	var prom promCounters = map[string]float64{}
	hists := map[string]*obs.HistSnapshot{}
	for _, srv := range p.servers {
		s := srv.Stats()
		st.Entered += s.Entered
		st.Forwarded += s.Forwarded
		st.Dropped += s.Dropped
		st.QueueDrops += s.QueueDrops
		st.Abandoned += s.Abandoned
		for _, sh := range srv.ShardStats() {
			fireLocks += sh.FireLocks
			pushLocks += sh.PushLocks
			dispatched += sh.Dispatched
			wakeups += sh.Wakeups
			spurious += sh.SpuriousWakes
			elided += sh.KicksElided
			kicked += sh.KicksDelivered
			misses += sh.DeadlineMisses
			if sh.LagP50 > fidP50 {
				fidP50 = sh.LagP50
			}
			if sh.LagP99 > fidP99 {
				fidP99 = sh.LagP99
			}
		}
		prom.add(srv.Obs())
		for _, h := range []string{"poem_ingest_ns", "poem_dispatch_ns", "poem_enqueue_ns", "poem_send_ns",
			"poem_deliver_lag_ns", "poem_flush_batch_entries", "poem_sched_fire_batch_entries",
			"poem_scene_tick_ns", "poem_cluster_staleness_ns"} {
			if hh := srv.Obs().FindHistogram(h); hh != nil {
				s := hh.Snapshot()
				if acc := hists[h]; acc != nil {
					for i := range s.Buckets {
						acc.Buckets[i] += s.Buckets[i]
					}
					acc.Count += s.Count
				} else {
					hists[h] = &s
				}
			}
		}
	}
	q := func(name string, qv float64) (float64, uint64) {
		h := hists[name]
		if h == nil {
			return 0, 0
		}
		return h.Quantile(qv), h.Count
	}
	wallUs := func(emuNs float64) float64 { return emuNs / p.scale / 1e3 }

	v, n := q("poem_ingest_ns", 0.5)
	b.putLayer("core.ingest_ns.p50", v, n)
	v, n = q("poem_ingest_ns", 0.99)
	b.putLayer("core.ingest_ns.p99", v, n)
	v, n = q("poem_dispatch_ns", 0.99)
	b.putLayer("core.dispatch_ns.p99", v, n)
	v, n = q("poem_enqueue_ns", 0.99)
	b.putLayer("core.enqueue_ns.p99", v, n)
	v, n = q("poem_send_ns", 0.99)
	b.putLayer("core.send_ns.p99", v, n)
	v, n = q("poem_deliver_lag_ns", 0.5)
	b.putLayer("core.deliver_lag_us.p50", wallUs(v), n)
	v, n = q("poem_deliver_lag_ns", 0.99)
	b.putLayer("core.deliver_lag_us.p99", wallUs(v), n)
	b.putLayer("core.queue_drops", float64(st.QueueDrops), 0)
	b.putLayer("core.abandoned", float64(st.Abandoned), 0)
	v, n = q("poem_flush_batch_entries", 0.5)
	b.putLayer("transport.flush_batch.p50", v, n)
	v, n = q("poem_sched_fire_batch_entries", 0.5)
	b.putLayer("sched.fire_batch.p50", v, n)
	v, n = q("poem_sched_fire_batch_entries", 0.99)
	b.putLayer("sched.fire_batch.p99", v, n)
	v, n = q("poem_scene_tick_ns", 0.99)
	b.putLayer("scene.tick_us.p99", v/1e3, n)
	v, n = q("poem_cluster_staleness_ns", 0.5)
	b.putLayer("cluster.staleness_us", v/1e3, n)

	b.putLayer("sched.locks_per_delivery", ratio(fireLocks+pushLocks, dispatched), dispatched)
	b.putLayer("sched.wakeups_per_s", float64(wakeups)/secs, wakeups)
	b.putLayer("sched.spurious_frac", ratio(spurious, wakeups), wakeups)
	b.putLayer("sched.kick_elide_frac", ratio(elided, elided+kicked), elided+kicked)
	b.putLayer("fidelity.lag_us.p50", wallUs(float64(fidP50)), 0)
	b.putLayer("fidelity.lag_us.p99", wallUs(float64(fidP99)), 0)
	b.putLayer("fidelity.miss_frac", ratio(misses, dispatched), dispatched)
	b.putLayer("fidelity.breaches", prom["poem_health_breaches_total"], 0)
	b.putLayer("linkmodel.drop_frac", ratio(st.Dropped, st.Dropped+st.Entered), st.Dropped+st.Entered)
	b.putLayer("scene.view_rebuilds_per_op", float64(prom["poem_scene_view_rebuilds_total"])/math.Max(float64(p.ops), 1), uint64(p.ops))
	recs := prom["poem_record_packets_total"]
	b.putLayer("record.records_per_delivery", recs/math.Max(float64(b.delivered), 1), b.delivered)
	if commits := prom["poem_record_batch_commits_total"]; commits > 0 {
		b.putLayer("record.packets_per_commit", recs/commits, uint64(commits))
	}

	var remote, trunkDropped, repErrors, reconnects uint64
	for _, srv := range p.servers {
		cs := srv.Cluster()
		if cs == nil {
			continue
		}
		remote += cs.RemoteEntries
		trunkDropped += cs.TrunkDropped
		repErrors += cs.RepErrors
		for _, ps := range cs.PeerStats {
			reconnects += ps.Reconnects
		}
	}
	b.putLayer("cluster.remote_entries_per_s", float64(remote)/secs, remote)
	b.putLayer("cluster.rep_errors", float64(repErrors), 0)
	b.putLayer("transport.trunk_dropped", float64(trunkDropped), 0)
	b.putLayer("transport.trunk_reconnects", float64(reconnects), 0)

	var allocs, hits uint64
	for _, pl := range p.pools {
		s := pl.Stats()
		allocs += s.Allocs
		hits += s.Hits
	}
	b.putLayer("mbuf.hit_frac", ratio(hits, allocs), allocs)

	var ingress, shed, delivered, late uint64
	for _, g := range p.gws {
		for _, l := range g.Stats() {
			ingress += l.Ingress
			shed += l.Shed
			delivered += l.Delivered
			late += l.Late
		}
	}
	b.putLayer("gateway.shed_frac", ratio(shed, ingress), ingress)
	b.putLayer("gateway.late_frac", ratio(late, delivered), delivered)

	var offs samples
	for _, c := range p.clients {
		offs = append(offs, math.Abs(float64(c.Offset()))/p.scale/1e3)
	}
	b.putLayer("vclock.sync_offset_us", offs.quantile(0.5), uint64(len(offs)))

	if p.overTCP && b.delivered > 0 {
		frame, _ := wire.AppendFrame(nil, &wire.Data{Pkt: wire.Packet{Dst: 1}})
		b.putLayer("wire.bytes_per_delivery",
			float64(len(frame))+float64(b.chk.bytes.Load())/float64(b.chk.received.Load()), b.delivered)
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// promCounters reads counters out of the registry's text exposition,
// the only read path the registry offers for them.
type promCounters map[string]float64

func (pc promCounters) add(reg *obs.Registry) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		l := sc.Text()
		if strings.HasPrefix(l, "#") || strings.ContainsRune(l, '{') {
			continue
		}
		f := strings.Fields(l)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			pc[f[0]] += v
		}
	}
}

// layerCommon reports the figures the benchmark measured itself.
func (b *bench) layerCommon() {
	n, q := b.gen.quantiles(0.5, 0.99)
	b.putLayer("gen.lag_us.p50", q[0]/1e3, n)
	b.putLayer("gen.lag_us.p99", q[1]/1e3, n)
	ln, _ := b.chk.lateness.quantiles(0.5)
	b.putLayer("gen.lateness_samples", float64(ln), ln)
	b.putLayer("client.dial_us.p50", b.dials.quantile(0.5)/1e3, uint64(len(b.dials)))
	b.putLayer("client.dial_us.p99", b.dials.quantile(0.99)/1e3, uint64(len(b.dials)))
	var all samples
	for op, name := range map[int]string{opMove: "move", opRange: "range", opRadios: "radios"} {
		s := b.sceneOps[op]
		all = append(all, s...)
		b.putLayer("scene.op_us."+name+".p50", s.quantile(0.5)/1e3, uint64(len(s)))
		b.putLayer("scene.op_us."+name+".p99", s.quantile(0.99)/1e3, uint64(len(s)))
	}
	b.putLayer("scene.op_us.p50", all.quantile(0.5)/1e3, uint64(len(all)))
	b.putLayer("scene.op_us.p99", all.quantile(0.99)/1e3, uint64(len(all)))
	b.putLayer("cluster.repl_lag_us.p50", b.replLag.quantile(0.5)/1e3, uint64(len(b.replLag)))
	b.putLayer("sched.depth_max", float64(b.depthMax), 0)
	b.putLayer("gateway.egress_depth_max", float64(b.egressMax), 0)
	b.putLayer("core.goroutines_per_session", b.goroutines, 0)
	b.putLayer("runtime.allocs_per_delivery", float64(b.mallocs)/math.Max(float64(b.delivered), 1), b.delivered)
	b.putLayer("runtime.gc_pause_ms", float64(b.gcPause)/1e6, 0)
}

// codecTimings times the wire codec on every payload size the
// workloads draw from: AppendFrame to encode a Data frame, ReadMsgPooled
// to decode it into a pooled buffer.
func (b *bench) codecTimings() {
	pool := mbuf.NewPool()
	const reps, rounds = 2000, 9
	for _, size := range []int{16, 64, 512, 1400, 4096} {
		payload := make([]byte, size)
		fillTail(payload)
		stampPayload(payload, 1, 1, 1, 1)
		msg := &wire.Data{Pkt: wire.Packet{Src: 1, Dst: 2, Channel: 1, Flow: 1, Seq: 1, Payload: payload}}
		frame, err := wire.AppendFrame(nil, msg)
		if err != nil {
			b.chk.violation("codec: encode %d bytes: %v", size, err)
			continue
		}
		var enc, dec samples
		buf := make([]byte, 0, len(frame))
		r := bytes.NewReader(frame)
		for round := 0; round < rounds; round++ {
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				buf, _ = wire.AppendFrame(buf[:0], msg)
			}
			enc = append(enc, float64(time.Since(t0))/reps)
			t0 = time.Now()
			for i := 0; i < reps; i++ {
				r.Reset(frame)
				m, err := wire.ReadMsgPooled(r, pool)
				if err != nil {
					b.chk.violation("codec: decode %d bytes: %v", size, err)
					break
				}
				if d, ok := m.(*wire.Data); !ok || !bytes.Equal(d.Pkt.Payload, payload) {
					b.chk.violation("codec: %d-byte frame did not round-trip", size)
				}
				wire.ReleaseMsg(m)
			}
			dec = append(dec, float64(time.Since(t0))/reps)
		}
		b.putLayer(fmt.Sprintf("wire.encode_ns.%d", size), enc.quantile(0.5), reps*rounds)
		b.putLayer(fmt.Sprintf("wire.decode_ns.%d", size), dec.quantile(0.5), reps*rounds)
	}
	if live := pool.Live(); live != 0 {
		b.chk.violation("codec: %d pooled buffers leaked", live)
	}
}

// traceMetrics summarizes the traced half of the run.
func (b *bench) traceMetrics() {
	spans := b.tr.recorded()
	s := summarize(spans)
	b.putLayer("trace.spans", float64(len(spans)), uint64(len(spans)))
	b.putLayer("trace.spans_dropped", float64(b.tr.dropped.Load()), 0)
	us := func(v float64) float64 { return v / 1e3 }
	b.putLayer("trace.send_to_deliver_us.p50", us(s.sendToDeliver.quantile(0.5)), uint64(len(s.sendToDeliver)))
	b.putLayer("trace.send_to_deliver_us.p99", us(s.sendToDeliver.quantile(0.99)), uint64(len(s.sendToDeliver)))
	for i, name := range spanNames {
		b.putLayer("trace.self_us."+strings.ReplaceAll(name, ".", "_")+".p50", us(s.self[i].quantile(0.5)), uint64(len(s.self[i])))
	}
	send := s.dur[spGenSend]
	b.putLayer("client.send_us.p50", us(send.quantile(0.5)), uint64(len(send)))
	b.putLayer("client.send_us.p99", us(send.quantile(0.99)), uint64(len(send)))
	uw := s.dur[spUDPWrite]
	b.putLayer("udp.write_us.p50", us(uw.quantile(0.5)), uint64(len(uw)))
	qs := s.dur[spQuiesce]
	b.putLayer("core.quiesce_ms", qs.quantile(0.5)/1e6, uint64(len(qs)))
	if s.orphans > 0 {
		b.info = append(b.info, fmt.Sprintf("trace  %d deliver spans without a recorded gen.send parent", s.orphans))
	}
}

// sourceDigest is set at build time (see run.sh) to a hash of the
// emulator's sources, identifying the code measured where no VCS
// revision is available.
var sourceDigest = "unknown"

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value + " source=" + sourceDigest
			}
		}
	}
	return "none source=" + sourceDigest
}

// shardLine records how many pipeline shards a server resolved.
func shardLine(role string, srv *core.Server) string {
	return fmt.Sprintf("server %s shards=%d", role, srv.Shards())
}
