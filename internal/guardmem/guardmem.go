// Package guardmem hands tests buffers that border a PROT_NONE page, so
// an assembly kernel reading or writing even one byte outside its
// slice faults instead of touching a neighbour on the heap. Only tests
// import it; off Linux it hands out plain heap memory.
package guardmem
