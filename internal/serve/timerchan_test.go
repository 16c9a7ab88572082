//go:build go1.23

// The module's go 1.22 line keeps timer channels asynchronous: a due timer
// is sent on its channel only when the runtime gets round to it, and a loop
// that never blocks can absorb 20,000 queued submissions first. The
// directive below gives this package's test binary Go 1.23's synchronous
// timer channels, where a due timer's channel is ready at every select that
// polls it, so TestHostFlushFullAndTimer's 1 ns timer closes a batch within
// a few passes of being due, on every run. The build line keeps the setting
// from toolchains that do not know it.
//go:debug asynctimerchan=0

package serve
