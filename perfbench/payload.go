package main

import (
	"encoding/binary"
	"hash/crc32"
	"hash/fnv"
	"math/rand"
	"time"

	"repro/internal/radio"
)

// Every generated payload starts with a 16-byte header: the intended
// send time (emulation ns), the per-(src, dst, flow) sequence number and
// a CRC-32C over the rest of the payload bound to the sender and flow,
// so a corrupted, truncated or misattributed payload fails the check.
const hdrLen = 16

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func payloadSum(b []byte, src radio.NodeID, flow uint16) uint32 {
	h := crc32.Update(0, castagnoli, b[:12])
	h = crc32.Update(h, castagnoli, b[hdrLen:])
	return h ^ uint32(src)*0x9e3779b1 ^ uint32(flow)<<7
}

// fillTail writes the payload body once per buffer; only the header
// changes from packet to packet.
func fillTail(b []byte) {
	for i := hdrLen; i < len(b); i++ {
		b[i] = byte(i*7 + 3)
	}
}

// stampPayload writes the header of one generated packet into b, whose
// tail fillTail already wrote.
func stampPayload(b []byte, intended int64, seq uint32, src radio.NodeID, flow uint16) {
	binary.LittleEndian.PutUint64(b[0:8], uint64(intended))
	binary.LittleEndian.PutUint32(b[8:12], seq)
	binary.LittleEndian.PutUint32(b[12:16], payloadSum(b, src, flow))
}

// parsePayload returns the header fields, or ok=false when the payload
// is shorter than a header or fails its checksum.
func parsePayload(b []byte, src radio.NodeID, flow uint16) (intended int64, seq uint32, ok bool) {
	if len(b) < hdrLen {
		return 0, 0, false
	}
	if binary.LittleEndian.Uint32(b[12:16]) != payloadSum(b, src, flow) {
		return 0, 0, false
	}
	return int64(binary.LittleEndian.Uint64(b[0:8])), binary.LittleEndian.Uint32(b[8:12]), true
}

// event is one generated operation: a packet from node index src to
// node index dst (-1 = broadcast) on channel ch, or — with op set — a
// scene mutation on node index src.
type event struct {
	at   time.Duration // offset from the start of the traffic phase; 0 in closed-loop lists
	src  int32
	dst  int32
	ch   uint8
	op   uint8 // 0 = packet; opMove, opRange, opRadios = scene mutation
	size uint16
}

const (
	opMove = iota + 1
	opRange
	opRadios
)

// digest fingerprints a workload's whole generated input, so a run can
// show which input it measured and two runs can show they measured the
// same one.
func digest(events []event) uint64 {
	h := fnv.New64a()
	var b [17]byte
	for _, e := range events {
		binary.LittleEndian.PutUint64(b[0:8], uint64(e.at))
		binary.LittleEndian.PutUint32(b[8:12], uint32(e.src))
		binary.LittleEndian.PutUint32(b[12:16], uint32(e.dst))
		b[16] = e.ch ^ e.op<<4
		h.Write(b[:])
		h.Write([]byte{byte(e.size), byte(e.size >> 8)})
	}
	return h.Sum64()
}

// poissonTimes returns open-loop arrival offsets at rate per second over
// d: exponential gaps, so arrivals are independent of how fast the
// system absorbs them.
func poissonTimes(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// flowKey identifies a (src, flow) stream at one receiver; with the
// receiver fixed it is the (src, dst, flow) the order check runs on.
func flowKey(src radio.NodeID, flow uint16) uint64 {
	return uint64(src)<<16 | uint64(flow)
}

// packetID names one generated packet for the trace: its sender, flow
// and sequence number.
func packetID(src radio.NodeID, flow uint16, seq uint32) uint64 {
	return uint64(src)<<48 | uint64(flow)<<32 | uint64(seq)
}
