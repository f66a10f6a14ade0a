// Package chunkserver models the storage cluster's chunk servers: the
// processes that own physical SSDs and persist replicated 4 KiB blocks.
// The SSD model captures what Fig. 6 shows: writes land in the SSD's
// write cache in tens of microseconds without touching NAND (the log-
// structured write path turns random writes sequential), while reads that
// miss the server's memory cache pay the NAND read latency. Each disk has
// bounded internal parallelism and an IOPS ceiling, so overload produces
// queueing delay organically.
package chunkserver

import (
	"fmt"
	"sort"
	"time"

	"lunasolar/internal/crc"
	"lunasolar/internal/sim"
	"lunasolar/internal/trace"
)

// SSDConfig models one physical SSD.
type SSDConfig struct {
	WriteCacheMedian time.Duration // write-cache commit latency
	WriteSigma       float64       // log-normal shape for the write tail
	NANDReadMedian   time.Duration // media read latency
	ReadSigma        float64
	CacheHitRate     float64 // server memory cache hit ratio for reads
	CacheHitMedian   time.Duration
	Parallelism      int // concurrent internal operations (channels × planes)
	IOPSCap          float64
}

// DefaultSSD returns the ESSD-class device model.
func DefaultSSD() SSDConfig {
	return SSDConfig{
		WriteCacheMedian: 12 * time.Microsecond,
		WriteSigma:       0.35,
		NANDReadMedian:   65 * time.Microsecond,
		ReadSigma:        0.30,
		CacheHitRate:     0.55,
		CacheHitMedian:   6 * time.Microsecond,
		Parallelism:      64, // NVMe internal queue depth
		IOPSCap:          800_000,
	}
}

type blockRec struct {
	data []byte
	crc  uint32
	gen  uint32
}

// Server is one chunk server: an SSD plus an in-memory block store keyed by
// (segment, LBA). Stored blocks carry their raw CRC so integrity is
// verifiable end to end.
type Server struct {
	eng  *sim.Engine
	name string
	cfg  SSDConfig
	rand *sim.Rand

	disk     *sim.Server
	nextSlot sim.Time // IOPS pacer: next admission slot
	blocks   map[uint64]map[uint64]blockRec

	writes, reads, crcErrors, misses uint64

	// rec is the optional flight recorder; CRC rejections — the paper's
	// Fig. 11 corruption events — are its marquee customer. Nil-safe.
	rec *trace.Recorder

	freeWrites []*blockWrite
}

// blockWrite carries one block write through IOPS admission and the disk.
// Records are pooled (LIFO, deterministic reuse), so a write allocates
// only the stored copy of its data.
type blockWrite struct {
	s            *Server
	segment, lba uint64
	gen          uint32
	stored       []byte
	expect       uint32
	done         func(error)
}

// New creates a chunk server.
func New(eng *sim.Engine, name string, cfg SSDConfig) *Server {
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 8
	}
	return &Server{
		eng:    eng,
		name:   name,
		cfg:    cfg,
		rand:   eng.Rand.Fork(),
		disk:   sim.NewServer(eng, name+"-ssd", cfg.Parallelism),
		blocks: map[uint64]map[uint64]blockRec{},
	}
}

// Name returns the server's diagnostic name.
func (s *Server) Name() string { return s.name }

// Stats returns operation counters: writes, reads, CRC rejections, read
// misses (block never written).
func (s *Server) Stats() (writes, reads, crcErrors, misses uint64) {
	return s.writes, s.reads, s.crcErrors, s.misses
}

// admissionDelay reserves the next IOPS slot and returns how long the
// caller must wait for it, so overload shows up as queueing delay.
func (s *Server) admissionDelay() time.Duration {
	interval := time.Duration(float64(time.Second) / s.cfg.IOPSCap)
	now := s.eng.Now()
	if s.nextSlot < now {
		s.nextSlot = now
	}
	d := s.nextSlot.Sub(now)
	s.nextSlot = s.nextSlot.Add(interval)
	return d
}

// WriteBlock persists one block. expectCRC is the raw CRC the writer
// computed over the payload; the chunk server re-checksums on arrival and
// rejects mismatches (err != nil), which is how production detected the
// Fig. 11 corruption events. done fires when the block is durable in the
// write cache.
func (s *Server) WriteBlock(segment, lba uint64, gen uint32, data []byte, expectCRC uint32, done func(err error)) {
	var w *blockWrite
	if n := len(s.freeWrites); n > 0 {
		w = s.freeWrites[n-1]
		s.freeWrites[n-1] = nil
		s.freeWrites = s.freeWrites[:n-1]
	} else {
		w = &blockWrite{s: s}
	}
	w.segment, w.lba, w.gen, w.expect, w.done = segment, lba, gen, expectCRC, done
	w.stored = append([]byte(nil), data...)
	s.eng.ScheduleArg(s.admissionDelay(), blockWriteAdmitted, w)
}

// blockWriteAdmitted starts the media write once the IOPS slot arrives.
func blockWriteAdmitted(a any) {
	w := a.(*blockWrite)
	w.s.disk.SubmitArg(w.s.rand.LogNormal(w.s.cfg.WriteCacheMedian, w.s.cfg.WriteSigma), blockWriteDone, w)
}

// blockWriteDone verifies and commits the block once it is durable in the
// write cache.
func blockWriteDone(a any) {
	w := a.(*blockWrite)
	s, segment, lba, gen, stored, expectCRC, done := w.s, w.segment, w.lba, w.gen, w.stored, w.expect, w.done
	*w = blockWrite{s: s}
	s.freeWrites = append(s.freeWrites, w)
	s.writes++
	if got := crc.Raw(stored); got != expectCRC {
		s.crcErrors++
		s.rec.Record(s.eng.Now().Duration(), trace.EvCRCError, segment, lba)
		done(fmt.Errorf("chunkserver %s: CRC mismatch at seg=%d lba=%#x: got %08x want %08x",
			s.name, segment, lba, got, expectCRC))
		return
	}
	seg := s.blocks[segment]
	if seg == nil {
		seg = map[uint64]blockRec{}
		s.blocks[segment] = seg
	}
	prev, exists := seg[lba]
	if exists && prev.gen > gen {
		// Stale retransmitted generation: keep the newer data but
		// still acknowledge (idempotent write).
		done(nil)
		return
	}
	seg[lba] = blockRec{data: stored, crc: expectCRC, gen: gen}
	done(nil)
}

// ReadBlock fetches one block. done receives the payload, its stored raw
// CRC, and an error for missing blocks.
func (s *Server) ReadBlock(segment, lba uint64, done func(data []byte, rawCRC uint32, err error)) {
	admission := s.admissionDelay()
	s.eng.Schedule(admission, func() {
		var service time.Duration
		if s.rand.Bernoulli(s.cfg.CacheHitRate) {
			service = s.rand.LogNormal(s.cfg.CacheHitMedian, s.cfg.ReadSigma)
		} else {
			service = s.rand.LogNormal(s.cfg.NANDReadMedian, s.cfg.ReadSigma)
		}
		s.disk.Submit(service, func() {
			s.reads++
			seg := s.blocks[segment]
			rec, ok := seg[lba]
			if !ok {
				// Unwritten space reads as zeros, like a fresh virtual disk.
				s.misses++
				zero := make([]byte, 4096)
				done(zero, crc.Raw(zero), nil)
				return
			}
			done(rec.data, rec.crc, nil)
		})
	})
}

// SegmentLBAs returns the sorted LBAs of every block stored for a segment
// — the manifest a replica rebuild copies. Sorting makes the copy order
// (and therefore the whole migration) independent of map iteration order.
func (s *Server) SegmentLBAs(segment uint64) []uint64 {
	seg := s.blocks[segment]
	if len(seg) == 0 {
		return nil
	}
	out := make([]uint64, 0, len(seg))
	for lba := range seg {
		out = append(out, lba)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SegmentBytes returns how many bytes a segment's stored blocks occupy on
// this server (drain sizing). Walks the sorted manifest so the result is
// assembled in a deterministic order.
func (s *Server) SegmentBytes(segment uint64) uint64 {
	var n uint64
	seg := s.blocks[segment]
	for _, lba := range s.SegmentLBAs(segment) {
		n += uint64(len(seg[lba].data))
	}
	return n
}

// MigrateRead fetches one block with its stored CRC and generation for a
// replica rebuild. It pays the same admission and media costs as a client
// read — migration traffic contends with foreground I/O on the source —
// but returns the stored generation so the destination commit preserves
// write-idempotency ordering.
func (s *Server) MigrateRead(segment, lba uint64, done func(data []byte, rawCRC uint32, gen uint32, err error)) {
	admission := s.admissionDelay()
	s.eng.Schedule(admission, func() {
		service := s.rand.LogNormal(s.cfg.NANDReadMedian, s.cfg.ReadSigma)
		s.disk.Submit(service, func() {
			s.reads++
			rec, ok := s.blocks[segment][lba]
			if !ok {
				s.misses++
				done(nil, 0, 0, fmt.Errorf("chunkserver %s: migrate read miss seg=%d lba=%#x", s.name, segment, lba))
				return
			}
			done(rec.data, rec.crc, rec.gen, nil)
		})
	})
}

// DropSegment discards a segment's blocks (the final step of draining
// this replica) and returns how many blocks were freed.
func (s *Server) DropSegment(segment uint64) int {
	n := len(s.blocks[segment])
	delete(s.blocks, segment)
	return n
}

// Utilization returns the SSD's busy-unit average (diagnostics).
func (s *Server) Utilization() float64 { return s.disk.Utilization() }

// SetRecorder attaches a flight recorder for CRC-rejection post-mortems.
func (s *Server) SetRecorder(r *trace.Recorder) { s.rec = r }

// Recorder returns the attached flight recorder (nil when off).
func (s *Server) Recorder() *trace.Recorder { return s.rec }
