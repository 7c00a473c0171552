package chaos

// RunTraceSoak exposes the seeded chaos trace soak to the external
// chaos_test package, whose digest pins import packages (conform) that
// themselves import chaos.
var RunTraceSoak = runTraceSoak

// TraceSoakSeed is the seed TestChaosTraceDeterminism runs the soak with.
const TraceSoakSeed = traceSoakSeed
