//go:build !amd64

package partition

// streamStore is goStore where no streaming store is written in
// assembly.
var streamStore = goStore
