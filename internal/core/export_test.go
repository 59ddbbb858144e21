package core

// FreshPageBuffers returns how many buffers rt's PageBuffer had to allocate.
func FreshPageBuffers(rt *Runtime) int { return rt.freshPages }
