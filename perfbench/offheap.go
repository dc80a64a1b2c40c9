package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// offHeap is an empty slice with room for n values in an anonymous memory
// mapping, outside the Go heap. The serving clients keep their per-request
// records there, so that the records neither count in peak_heap_mb nor
// raise the collector's heap goal, which scales with everything live on
// the heap. The kernel commits a page only when it is first written, so a
// generous n costs address space, not memory. T must hold no pointers.
type offHeap[T float32 | uint64] struct {
	mem []byte
	buf []T
}

func newOffHeap[T float32 | uint64](n int) (*offHeap[T], error) {
	var zero T
	size := max(n, 1) * int(unsafe.Sizeof(zero))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map %d bytes: %w", size, err)
	}
	return &offHeap[T]{mem: mem, buf: unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), max(n, 1))[:0]}, nil
}

// free unmaps the memory; no slice of it may be used afterwards.
func (o *offHeap[T]) free() {
	if o != nil && o.mem != nil {
		syscall.Munmap(o.mem)
		o.mem, o.buf = nil, nil
	}
}
