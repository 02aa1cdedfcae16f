package main

import (
	"math"

	"repro/internal/core"
)

// pin is the part of a run's output the benchmark holds fixed: the
// simulation is deterministic, so a speed-only change reproduces every
// field exactly.
type pin struct {
	MakespanBits uint64
	Tasks        int
	Migrations   int
	Replans      int
	PlanKind     string
}

func pinOf(r core.Result) pin {
	return pin{
		MakespanBits: math.Float64bits(r.Time),
		Tasks:        r.Tasks,
		Migrations:   r.Migration.Migrations,
		Replans:      r.Replans,
		PlanKind:     r.PlanKind,
	}
}

// pins holds the outputs of every closed-loop run, recorded from the
// repository's simulator (regenerate with --pins).
var pins = map[string]pin{
	"bfs/FirstTouch":      {0x3fc1e67954516cb8, 90, 0, 0, ""},
	"bfs/HW-Cache":        {0x3fc60dfc1ae8336b, 90, 0, 0, ""},
	"bfs/NVM-only":        {0x3fcb4005850bd074, 90, 0, 0, ""},
	"bfs/X-Mem":           {0x3fc1e67954516cb8, 90, 0, 0, "static"},
	"cg/FirstTouch":       {0x3fe32a7573511592, 640, 0, 0, ""},
	"cg/HW-Cache":         {0x3fe8522eef3a2bc5, 640, 0, 0, ""},
	"cg/NVM-only":         {0x3fee3c6aba3f1de6, 640, 0, 0, ""},
	"cg/X-Mem":            {0x3fe357564c0dc951, 640, 0, 0, "static"},
	"chol32/Tahoe":        {0x4039f8aa197715c4, 5984, 626, 8, "local"},
	"chol64/Tahoe":        {0x406b8965f7ceba2b, 45760, 1402, 8, "local"},
	"cholesky/FirstTouch": {0x3fee1e3160254221, 364, 0, 0, ""},
	"cholesky/HW-Cache":   {0x3ff4b9f02f68c761, 364, 0, 0, ""},
	"cholesky/NVM-only":   {0x3ffa2b0c3432dc47, 364, 0, 0, ""},
	"cholesky/X-Mem":      {0x3fed8b9d888706a2, 364, 0, 0, "static"},
	"fft/FirstTouch":      {0x3fe785eb05cc27ec, 337, 0, 0, ""},
	"fft/HW-Cache":        {0x3ffae5b827ad8147, 337, 0, 0, ""},
	"fft/NVM-only":        {0x3ff6a46373cb79b9, 337, 0, 0, ""},
	"fft/X-Mem":           {0x3fe785eb05cc27ec, 337, 0, 0, "static"},
	"heat/FirstTouch":     {0x3fe061aa458a8d05, 192, 0, 0, ""},
	"heat/HW-Cache":       {0x3fee8d3dfd7beb2c, 192, 0, 0, ""},
	"heat/NVM-only":       {0x3fe5d7df3e1da029, 192, 0, 0, ""},
	"heat/X-Mem":          {0x3fe061b124c2837b, 192, 0, 0, "static"},
	"kmeans/FirstTouch":   {0x3fc3c440f03d97e5, 170, 0, 0, ""},
	"kmeans/HW-Cache":     {0x3fc599ff16da99b2, 170, 0, 0, ""},
	"kmeans/NVM-only":     {0x3fd27a64ba397d64, 170, 0, 0, ""},
	"kmeans/X-Mem":        {0x3fc3c6bd8c4c2431, 170, 0, 0, "static"},
	"lu/FirstTouch":       {0x3ff24060bbf97013, 385, 0, 0, ""},
	"lu/HW-Cache":         {0x3ffb7c30c2a82aaa, 385, 0, 0, ""},
	"lu/NVM-only":         {0x3ffc1ad10ea1426e, 385, 0, 0, ""},
	"lu/X-Mem":            {0x3ff1d70d6df08d60, 385, 0, 0, "static"},
	"nqueens/FirstTouch":  {0x3f731413f6ce26f2, 14, 0, 0, ""},
	"nqueens/HW-Cache":    {0x3f73148305e2a4c6, 14, 0, 0, ""},
	"nqueens/NVM-only":    {0x3f7314e0d274aa91, 14, 0, 0, ""},
	"nqueens/X-Mem":       {0x3f731413f6ce26f2, 14, 0, 0, "static"},
	"pagerank/FirstTouch": {0x400d0d0d03ac3c28, 96, 0, 0, ""},
	"pagerank/HW-Cache":   {0x401c646bea3dbc82, 96, 0, 0, ""},
	"pagerank/NVM-only":   {0x401b96df8fb3a692, 96, 0, 0, ""},
	"pagerank/X-Mem":      {0x400d0d0d03ac3c28, 96, 0, 0, "static"},
	"qr/FirstTouch":       {0x4006da278d6ba958, 55, 0, 0, ""},
	"qr/HW-Cache":         {0x40109a7aff7042e2, 55, 0, 0, ""},
	"qr/NVM-only":         {0x400d3c498c46179a, 55, 0, 0, ""},
	"qr/X-Mem":            {0x400614a778594032, 55, 0, 0, "static"},
	"slu32/Tahoe":         {0x4038a294f9689f54, 5707, 522, 8, "local"},
	"sort/FirstTouch":     {0x3fdd3a19ab6db312, 31, 0, 0, ""},
	"sort/HW-Cache":       {0x3ff1d4233e40473c, 31, 0, 0, ""},
	"sort/NVM-only":       {0x3fe9808a8a9962af, 31, 0, 0, ""},
	"sort/X-Mem":          {0x3fdd3a19ab6db312, 31, 0, 0, "static"},
	"sparselu/FirstTouch": {0x3ff8009cf1bf09f1, 448, 0, 0, ""},
	"sparselu/HW-Cache":   {0x4001e87b9566fc6f, 448, 0, 0, ""},
	"sparselu/NVM-only":   {0x3fff0206d7d03b7c, 448, 0, 0, ""},
	"sparselu/X-Mem":      {0x3ff53b5756d908e7, 448, 0, 0, "static"},
	"strassen/FirstTouch": {0x3fdcb645fe24b201, 296, 0, 0, ""},
	"strassen/HW-Cache":   {0x3fe908642b3ca1ac, 296, 0, 0, ""},
	"strassen/NVM-only":   {0x3fe0f6d168b380fb, 296, 0, 0, ""},
	"strassen/X-Mem":      {0x3fdb2c4820479db9, 296, 0, 0, "static"},
	"wave/FirstTouch":     {0x3ff309c887c7e15c, 792, 0, 0, ""},
	"wave/HW-Cache":       {0x4001bafbcb8370d2, 792, 0, 0, ""},
	"wave/NVM-only":       {0x3ff649c388fa66cb, 792, 0, 0, ""},
	"wave/X-Mem":          {0x3ff292f41822458d, 792, 0, 0, "static"},
}
