package emu

// State is the register-and-memory view an instruction executes against.
// The architectural Machine implements it directly; Overlay implements it
// copy-on-write over another State so that mis-speculated (wrong-path)
// instructions can execute without corrupting architectural state.
type State interface {
	ReadReg(r int) uint32
	WriteReg(r int, v uint32)
	ReadMem8(addr uint32) byte
	WriteMem8(addr uint32, v byte)
	ReadMem16(addr uint32) uint16
	WriteMem16(addr uint32, v uint16)
	ReadMem32(addr uint32) uint32
	WriteMem32(addr uint32, v uint32)
}
